"""Multilingual keyword sets used by the interaction crawler.

The paper's Selenium crawler searches for age-gate buttons, privacy-policy
links, and account/premium cues in the eight most common default languages
of its corpus: English, Spanish, French, Portuguese, Russian, Italian,
German, and Romanian (Section 3.1, footnote 4).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set

__all__ = [
    "LANGUAGES",
    "AGE_GATE_BUTTON_KEYWORDS",
    "PRIVACY_LINK_KEYWORDS",
    "ACCOUNT_KEYWORDS",
    "PREMIUM_KEYWORDS",
    "COOKIE_BANNER_KEYWORDS",
    "AGE_WARNING_PHRASES",
    "all_keywords",
    "contains_keyword",
]

LANGUAGES = ("en", "es", "fr", "pt", "ru", "it", "de", "ro")

#: Affirmative button labels that pass an age gate ("Yes", "Enter", "Agree",
#: "Continue", "Accept" in the paper).
AGE_GATE_BUTTON_KEYWORDS: Dict[str, FrozenSet[str]] = {
    "en": frozenset({"yes", "enter", "agree", "continue", "accept", "i am 18"}),
    "es": frozenset({"sí", "si", "entrar", "acepto", "continuar", "aceptar"}),
    "fr": frozenset({"oui", "entrer", "j'accepte", "continuer", "accepter"}),
    "pt": frozenset({"sim", "entrar", "concordo", "continuar", "aceitar"}),
    "ru": frozenset({"да", "войти", "согласен", "продолжить", "принять"}),
    "it": frozenset({"sì", "entra", "accetto", "continua", "accettare"}),
    "de": frozenset({"ja", "eintreten", "zustimmen", "weiter", "akzeptieren"}),
    "ro": frozenset({"da", "intră", "sunt de acord", "continuă", "accept"}),
}

#: Keywords identifying a privacy-policy link ("Privacy" and "Policy").
PRIVACY_LINK_KEYWORDS: Dict[str, FrozenSet[str]] = {
    "en": frozenset({"privacy", "policy"}),
    "es": frozenset({"privacidad", "política"}),
    "fr": frozenset({"confidentialité", "politique"}),
    "pt": frozenset({"privacidade", "política"}),
    "ru": frozenset({"конфиденциальности", "политика"}),
    "it": frozenset({"privacy", "politica"}),
    "de": frozenset({"datenschutz", "richtlinie"}),
    "ro": frozenset({"confidențialitate", "politica"}),
}

#: Account-creation cues ("Log In", "Sign Up") for Section 4.1's business
#: model classification.
ACCOUNT_KEYWORDS: Dict[str, FrozenSet[str]] = {
    "en": frozenset({"log in", "login", "sign up", "signup", "register", "join now"}),
    "es": frozenset({"iniciar sesión", "registrarse", "regístrate"}),
    "fr": frozenset({"connexion", "s'inscrire", "inscription"}),
    "pt": frozenset({"entrar na conta", "cadastre-se", "registrar"}),
    "ru": frozenset({"вход", "регистрация"}),
    "it": frozenset({"accedi", "registrati", "iscriviti"}),
    "de": frozenset({"anmelden", "registrieren", "konto erstellen"}),
    "ro": frozenset({"autentificare", "înregistrare"}),
}

#: Premium/subscription cues.
PREMIUM_KEYWORDS: Dict[str, FrozenSet[str]] = {
    "en": frozenset({"premium", "upgrade", "membership", "subscribe"}),
    "es": frozenset({"premium", "suscripción", "suscríbete"}),
    "fr": frozenset({"premium", "abonnement", "s'abonner"}),
    "pt": frozenset({"premium", "assinatura", "assinar"}),
    "ru": frozenset({"премиум", "подписка"}),
    "it": frozenset({"premium", "abbonamento", "abbonati"}),
    "de": frozenset({"premium", "abo", "mitgliedschaft"}),
    "ro": frozenset({"premium", "abonament", "abonează-te"}),
}

#: Cookie-consent banner phrases (Section 7.1 banner detector).
COOKIE_BANNER_KEYWORDS: Dict[str, FrozenSet[str]] = {
    "en": frozenset({"cookies", "this website uses cookies", "cookie policy"}),
    "es": frozenset({"cookies", "este sitio utiliza cookies", "política de cookies"}),
    "fr": frozenset({"cookies", "ce site utilise des cookies"}),
    "pt": frozenset({"cookies", "este site usa cookies"}),
    "ru": frozenset({"cookie", "файлы cookie"}),
    "it": frozenset({"cookie", "questo sito utilizza cookie"}),
    "de": frozenset({"cookies", "diese website verwendet cookies"}),
    "ro": frozenset({"cookie-uri", "acest site folosește cookie-uri"}),
}

#: Warning phrases that distinguish an age gate from an ordinary dialog.
AGE_WARNING_PHRASES: Dict[str, FrozenSet[str]] = {
    "en": frozenset(
        {"18 years", "adults only", "adult content", "age verification", "of legal age"}
    ),
    "es": frozenset({"18 años", "solo adultos", "contenido para adultos"}),
    "fr": frozenset({"18 ans", "réservé aux adultes", "contenu adulte"}),
    "pt": frozenset({"18 anos", "somente adultos", "conteúdo adulto"}),
    "ru": frozenset({"18 лет", "только для взрослых"}),
    "it": frozenset({"18 anni", "solo adulti", "contenuti per adulti"}),
    "de": frozenset({"18 jahre", "nur für erwachsene"}),
    "ro": frozenset({"18 ani", "doar adulți", "conținut pentru adulți"}),
}


def all_keywords(table: Dict[str, FrozenSet[str]]) -> Set[str]:
    """Flatten a per-language table into one keyword set."""
    merged: Set[str] = set()
    for keywords in table.values():
        merged |= keywords
    return merged


def contains_keyword(text: str, table: Dict[str, FrozenSet[str]]) -> bool:
    """True if ``text`` contains any keyword from any language."""
    lowered = text.lower()
    return any(keyword in lowered for keyword in all_keywords(table))


def matching_keywords(text: str, table: Dict[str, FrozenSet[str]]) -> List[str]:
    """All keywords (any language) found in ``text``, sorted."""
    lowered = text.lower()
    return sorted(keyword for keyword in all_keywords(table) if keyword in lowered)
