"""HTML rendering for the synthetic universe's pages.

Every page is deterministic given (site, client country, verified flag).
The markup deliberately exhibits the patterns the paper's detectors key
on: floating consent overlays, multilingual button labels, privacy-policy
links, account/premium cues, adult-content vocabulary for the corpus
sanitizer, and operator-specific ``<head>`` boilerplate for the TF-IDF
owner clustering.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..util import token_for
from .sites import AgeGateSpec, BannerSpec, PornSiteSpec, RegularSiteSpec

__all__ = [
    "render_porn_landing",
    "render_regular_landing",
    "render_policy_page",
    "render_error_page",
    "head_boilerplate",
    "page_manifest",
]

#: Per-language strings (subset large enough for the 8-language detectors).
_STRINGS: Dict[str, Dict[str, str]] = {
    "en": {
        "age_warning": "This website contains adult content. You must be 18 years or older to enter.",
        "age_button": "Enter",
        "age_leave": "Leave",
        "banner_text": "This website uses cookies to improve your experience and deliver personalised advertising.",
        "banner_ok": "Accept",
        "banner_reject": "Decline",
        "privacy_link": "Privacy Policy",
        "login": "Log In",
        "signup": "Sign Up",
        "premium": "Premium",
    },
    "es": {
        "age_warning": "Este sitio contiene contenido para adultos. Debes tener 18 años para entrar.",
        "age_button": "Entrar",
        "age_leave": "Salir",
        "banner_text": "Este sitio utiliza cookies para mejorar su experiencia y mostrar publicidad personalizada.",
        "banner_ok": "Aceptar",
        "banner_reject": "Rechazar",
        "privacy_link": "Política de Privacidad",
        "login": "Iniciar Sesión",
        "signup": "Regístrate",
        "premium": "Premium",
    },
    "fr": {
        "age_warning": "Ce site contient du contenu adulte. Vous devez avoir 18 ans pour entrer.",
        "age_button": "Entrer",
        "age_leave": "Quitter",
        "banner_text": "Ce site utilise des cookies pour améliorer votre expérience.",
        "banner_ok": "Accepter",
        "banner_reject": "Refuser",
        "privacy_link": "Politique de Confidentialité",
        "login": "Connexion",
        "signup": "S'inscrire",
        "premium": "Premium",
    },
    "pt": {
        "age_warning": "Este site contém conteúdo adulto. Você deve ter 18 anos para entrar.",
        "age_button": "Entrar",
        "age_leave": "Sair",
        "banner_text": "Este site usa cookies para melhorar sua experiência.",
        "banner_ok": "Aceitar",
        "banner_reject": "Recusar",
        "privacy_link": "Política de Privacidade",
        "login": "Entrar na Conta",
        "signup": "Cadastre-se",
        "premium": "Premium",
    },
    "ru": {
        "age_warning": "Этот сайт содержит материалы для взрослых. Вам должно быть 18 лет.",
        "age_button": "Войти",
        "age_leave": "Выход",
        "banner_text": "Этот сайт использует файлы cookie для улучшения вашего опыта.",
        "banner_ok": "Принять",
        "banner_reject": "Отказ",
        "privacy_link": "Политика Конфиденциальности",
        "login": "Вход",
        "signup": "Регистрация",
        "premium": "Премиум",
    },
    "it": {
        "age_warning": "Questo sito contiene contenuti per adulti. Devi avere 18 anni per entrare.",
        "age_button": "Entra",
        "age_leave": "Esci",
        "banner_text": "Questo sito utilizza cookie per migliorare la tua esperienza.",
        "banner_ok": "Accetto",
        "banner_reject": "Rifiuto",
        "privacy_link": "Politica sulla Privacy",
        "login": "Accedi",
        "signup": "Registrati",
        "premium": "Premium",
    },
    "de": {
        "age_warning": "Diese Website enthält Inhalte für Erwachsene. Sie müssen 18 Jahre alt sein.",
        "age_button": "Eintreten",
        "age_leave": "Verlassen",
        "banner_text": "Diese Website verwendet Cookies, um Ihr Erlebnis zu verbessern.",
        "banner_ok": "Akzeptieren",
        "banner_reject": "Ablehnen",
        "privacy_link": "Datenschutz Richtlinie",
        "login": "Anmelden",
        "signup": "Registrieren",
        "premium": "Premium",
    },
    "ro": {
        "age_warning": "Acest site conține conținut pentru adulți. Trebuie să ai 18 ani pentru a intra.",
        "age_button": "Accept",
        "age_leave": "Ieșire",
        "banner_text": "Acest site folosește cookie-uri pentru a vă îmbunătăți experiența.",
        "banner_ok": "Accept",
        "banner_reject": "Refuz",
        "privacy_link": "Politica de Confidențialitate",
        "login": "Autentificare",
        "signup": "Înregistrare",
        "premium": "Premium",
    },
}

_ADULT_CATEGORIES = (
    "amateur", "anal", "asian", "bbw", "big tits", "blonde", "brunette",
    "creampie", "cumshot", "ebony", "hardcore", "latina", "lesbian", "milf",
    "teen 18+", "threesome", "vintage", "webcam",
)

_GENERIC_GENERATORS = (
    "WordPress 4.9.8", "KVS 5.1.0", "MechBunny 3.2", "Smart CJ 4",
    "TubeAce 2.8", "custom",
)


def _strings(language: str) -> Dict[str, str]:
    return _STRINGS.get(language, _STRINGS["en"])


def head_boilerplate(site: PornSiteSpec) -> str:
    """Operator-specific ``<head>`` markup (the §4.1 clustering signal)."""
    if site.owner is not None:
        generator = f"{site.owner} Network CMS v2.1"
        theme = site.owner.lower().replace(" ", "-").replace(".", "")
        extra = (
            f'<link rel="stylesheet" href="/themes/{theme}/network.css">'
            f'<meta name="copyright" content="{site.owner}">'
            f'<meta name="network-id" content="{token_for(8, "network", site.owner)}">'
        )
    else:
        generator = _GENERIC_GENERATORS[
            int(token_for(4, "gen", site.domain), 36) % len(_GENERIC_GENERATORS)
        ]
        extra = ""
    return (
        f'<meta charset="utf-8">'
        f'<meta name="generator" content="{generator}">'
        f'<meta name="keywords" content="porn, sex, xxx, adult videos, free porn">'
        f"{extra}"
    )


def _age_gate_html(gate: AgeGateSpec, language: str) -> str:
    strings = _strings(language)
    if gate.mode == "social_login":
        # The verifiable gate (§7.2: pornhub in Russia): no simple button,
        # only a social-network login that the crawler cannot complete.
        return (
            '<div id="age-gate" style="position:fixed;top:0;left:0;'
            'width:100%;height:100%;background:#000c">'
            f"<div class='modal'><h2>{strings['age_warning']}</h2>"
            "<p>Подтвердите свой возраст через аккаунт социальной сети, "
            "привязанный к паспорту.</p>"
            '<button id="social-login" data-gate="social">'
            "Войти через социальную сеть</button>"
            "</div></div>"
        )
    return (
        '<div id="age-gate" style="position:fixed;top:0;left:0;'
        'width:100%;height:100%;background:#000c">'
        f"<div class='modal'><h2>{strings['age_warning']}</h2>"
        f'<button id="age-enter" data-gate="button">{strings["age_button"]}</button>'
        f'<button id="age-leave">{strings["age_leave"]}</button>'
        "</div></div>"
    )


def _banner_html(banner: BannerSpec, language: str, *,
                 policy_available: bool = True) -> str:
    strings = _strings(language)
    buttons = ""
    if banner.banner_type == "confirmation":
        buttons = f'<button class="cc-accept">{strings["banner_ok"]}</button>'
    elif banner.banner_type == "binary":
        buttons = (
            f'<button class="cc-accept">{strings["banner_ok"]}</button>'
            f'<button class="cc-reject">{strings["banner_reject"]}</button>'
        )
    elif banner.banner_type == "slider":
        buttons = (
            '<input type="range" min="0" max="3" value="1" class="cc-level">'
            f'<button class="cc-accept">{strings["banner_ok"]}</button>'
        )
    elif banner.banner_type == "checkbox":
        buttons = (
            '<input type="checkbox" class="cc-purpose" checked>Functional '
            '<input type="checkbox" class="cc-purpose">Advertising '
            f'<button class="cc-accept">{strings["banner_ok"]}</button>'
        )
    link = (f'<a href="/privacy">{strings["privacy_link"]}</a> '
            if policy_available else "")
    return (
        '<div id="cookie-banner" style="position:fixed;bottom:0;left:0;'
        'width:100%;background:#222;color:#fff;padding:8px">'
        f"<span>{strings['banner_text']}</span> {link}{buttons}</div>"
    )


def _embed_tags(embeds: Sequence[Tuple[str, str]]) -> str:
    """Render (kind, url) resource embeds in order."""
    parts = []
    for kind, url in embeds:
        if kind == "script":
            parts.append(f'<script src="{url}"></script>')
        elif kind == "img":
            parts.append(f'<img src="{url}" width="1" height="1" alt="">')
        elif kind == "iframe":
            parts.append(f'<iframe src="{url}" width="300" height="250"></iframe>')
        elif kind == "link":
            parts.append(f'<link rel="stylesheet" href="{url}">')
        else:
            raise ValueError(f"unknown embed kind: {kind!r}")
    return "\n".join(parts)


def page_manifest(embeds: Sequence[Tuple[str, str]]) -> Tuple[Tuple[str, str], ...]:
    """The render manifest matching :func:`_embed_tags`' markup.

    Exactly the crawlable subresource references of a page rendered with
    ``embeds``: the embed list in document order, minus same-document
    relative assets (which the browser never logs).  Every other resource
    tag the landing templates emit uses a ``/``-relative URL, so this *is*
    the page's full fetch list — the manifest-vs-parse property test
    asserts that for every rendered page type.
    """
    return tuple(
        (kind, url) for kind, url in embeds if url and not url.startswith("/")
    )


def render_porn_landing(
    site: PornSiteSpec,
    *,
    embeds: Sequence[Tuple[str, str]],
    show_age_gate: bool,
    show_banner: bool,
    policy_available: bool,
    verified: bool = False,
) -> str:
    """The landing page of a pornographic website."""
    strings = _strings(site.language)
    parts: List[str] = [
        "<html>",
        f"<head><title>{site.domain} - Free Porn Videos</title>",
        head_boilerplate(site),
        "</head><body>",
    ]
    # The caller (the server) decides gate visibility: a verified token only
    # clears button gates, never the verifiable social-login gate.
    if show_age_gate and site.age_gate is not None:
        parts.append(_age_gate_html(site.age_gate, site.language))
    if show_banner and site.banner is not None:
        parts.append(_banner_html(site.banner, site.language,
                                  policy_available=policy_available))

    # Navigation with account / premium cues (§4.1 business models).
    nav = ['<a href="/">Home</a>', '<a href="/categories">Categories</a>']
    if site.has_subscription:
        nav.append(f'<a href="/login">{strings["login"]}</a>')
        nav.append(f'<a href="/signup">{strings["signup"]}</a>')
        nav.append(f'<a href="/premium">{strings["premium"]}</a>')
    parts.append("<nav>" + " | ".join(nav) + "</nav>")
    if site.subscription == "paid":
        parts.append(
            "<div class='paywall'>Join now for $29.95/month — full HD access. "
            "Secure billing by our payment partner.</div>"
        )
    elif site.subscription == "free":
        parts.append("<div class='join'>100% free registration — no credit card.</div>")

    # Adult-content vocabulary: the sanitizer's classification signal.
    categories = " ".join(
        f'<a href="/c/{category.replace(" ", "-")}">{category}</a>'
        for category in _ADULT_CATEGORIES
    )
    parts.append(f"<div class='categories'>{categories}</div>")
    if site.content_category == "proxy":
        parts.append(
            "<p>Mirror and proxy access to the best adult tube sites. "
            "Unblock porn videos from anywhere.</p>"
        )
    elif site.content_category == "cams":
        parts.append("<p>Live sex cams — free adult webcam shows streaming now.</p>")
    else:
        parts.append(
            "<p>Watch free porn videos in HD. New xxx movies added daily. "
            "Adults only — 18+.</p>"
        )

    if site.rta_label:
        parts.append('<meta name="RATING" content="RTA-5042-1996-1400-1577-RTA">')

    parts.append(_embed_tags(embeds))

    footer = ['<a href="/terms">Terms</a>', '<a href="/2257">18 U.S.C. 2257</a>']
    if policy_available:
        footer.append(f'<a href="/privacy">{strings["privacy_link"]}</a>')
    parts.append("<footer>" + " | ".join(footer) + "</footer>")
    parts.append("</body></html>")
    return "\n".join(parts)


def render_regular_landing(
    site: RegularSiteSpec, *, embeds: Sequence[Tuple[str, str]]
) -> str:
    """The landing page of a regular (reference corpus) website."""
    topic = site.category
    return "\n".join(
        [
            "<html>",
            f"<head><title>{site.domain} - {topic} and more</title>",
            '<meta charset="utf-8">',
            f'<meta name="keywords" content="{topic}, articles, daily updates">',
            "</head><body>",
            f"<nav><a href='/'>Home</a> | <a href='/about'>About</a></nav>",
            f"<h1>Welcome to {site.domain}</h1>",
            f"<p>The latest {topic} stories, guides and community discussions. "
            "Updated every day by our editorial team.</p>",
            _embed_tags(embeds),
            "<footer><a href='/privacy'>Privacy Policy</a> | "
            "<a href='/contact'>Contact</a></footer>",
            "</body></html>",
        ]
    )


def render_policy_page(site_domain: str, policy_text: str) -> str:
    paragraphs = "".join(f"<p>{block}</p>" for block in policy_text.split("\n\n"))
    return (
        f"<html><head><title>Privacy Policy - {site_domain}</title></head>"
        f"<body><h1>Privacy Policy</h1>{paragraphs}</body></html>"
    )


def render_error_page(status: int, reason: str) -> str:
    return (
        f"<html><head><title>{status} {reason}</title></head>"
        f"<body><h1>{status} {reason}</h1></body></html>"
    )
