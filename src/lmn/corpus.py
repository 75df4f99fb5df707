"""Deterministic generator for a Shakespeare-style training corpus.

There is no network access in the build environment, so training and
acceptance runs use this synthetic stand-in: play-formatted dialogue whose
character set is exactly the classic 65-symbol tiny-Shakespeare vocabulary
(newline, space, !$&',-.3:;? and the upper/lowercase letters). The text has
speaker turns, scene headers, and grammar-sampled Early-Modern-English
lines, so a char-level model has spelling, phrase, and discourse structure
to learn at several ranges.
"""

from __future__ import annotations

import numpy as np

from .model import OutputError, write_file

VOCAB_65 = "\n !$&',-.3:;?ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"

SPEAKERS = [
    "FIRST CITIZEN", "SECOND CITIZEN", "THIRD CITIZEN", "FIRST WATCHMAN",
    "SECOND WATCHMAN", "FIRST MURDERER", "SECOND MURDERER", "MENENIUS",
    "CORIOLANUS", "VOLUMNIA", "SICINIUS", "BRUTUS", "MARCIUS", "COMINIUS",
    "GLOUCESTER", "KING RICHARD", "QUEEN ELIZABETH", "QUEEN MARGARET",
    "LADY ANNE", "BUCKINGHAM", "HASTINGS", "CLARENCE", "EXETER", "JULIET",
    "ROMEO", "NURSE", "FRIAR LAURENCE", "MERCUTIO", "TYBALT", "BENVOLIO",
    "CAPULET", "LADY CAPULET", "PRINCE", "DUKE VINCENTIO", "ISABELLA",
    "LUCIO", "ANGELO", "ESCALUS", "PROVOST", "POMPEY", "ELBOW", "FROTH",
    "ABHORSON", "BARNARDINE", "FITZWATER", "AUMERLE", "BOLINGBROKE",
    "JOHN OF GAUNT", "DUKE OF YORK", "NORTHUMBERLAND", "HENRY PERCY",
    "LORD ROSS", "LORD WILLOUGHBY", "BISHOP OF CARLISLE", "SIR STEPHEN SCROOP",
    "EARL OF SALISBURY", "GARDENER", "KEEPER", "GROOM", "SHEPHERD", "CLOWN",
    "AUTOLYCUS", "FLORIZEL", "PERDITA", "CAMILLO", "PAULINA", "LEONTES",
    "HERMIONE", "POLIXENES", "ANTIGONUS", "ARCHIDAMUS", "ZOUNDSBY",
]

OPENERS = [
    "O", "Nay", "Marry", "Alas", "Soft", "Hark", "Fie", "Why", "Peace",
    "Tush", "Come", "Go to", "What", "How now", "Prithee", "Ay", "No more",
    "Stay", "Hold", "Look", "Well", "Now", "Then", "Yet", "So", "Lo",
    "Good morrow", "By my troth", "In faith", "Out upon it", "Hear me",
]

SUBJECTS = [
    "I", "thou", "he", "she", "we", "they", "the king", "the queen",
    "my lord", "my lady", "the duke", "the friar", "the nurse", "the crowd",
    "the city", "the senate", "the people", "the watch", "the night",
    "the morning", "the tempest", "the grave", "the crown", "the state",
    "the church", "the garden", "the moon", "the sun", "the sea",
    "the wind", "the fates", "the gods", "mine enemy", "my cousin",
    "my father", "my mother", "my brother", "the prince", "the provost",
    "the shepherd", "the clown", "the gardener", "the keeper", "the groom",
    "yon stranger", "this jest", "that quarrel", "our zeal", "his grace",
    "her majesty", "the exchequer", "the jury", "the quarrel", "the oracle",
]

VERBS_PLAIN = [
    "comes", "goes", "speaks", "weeps", "sleeps", "wakes", "bleeds",
    "breaks", "bends", "bows", "burns", "calls", "cries", "dies", "dreams",
    "falls", "fears", "fights", "flies", "grieves", "grows", "hides",
    "jests", "kneels", "knows", "lies", "lives", "loves", "mourns",
    "moves", "prays", "quakes", "rages", "reigns", "rests", "rises",
    "sings", "sits", "smiles", "stands", "stays", "swears", "thinks",
    "trembles", "waits", "walks", "wanders", "watches", "vexes", "yields",
    "gazes", "hazards", "journeys", "quarrels", "questions", "dozes",
]

VERBS_TRANS = [
    "loves", "hates", "fears", "seeks", "finds", "loses", "keeps",
    "holds", "takes", "gives", "brings", "sends", "shows", "tells",
    "knows", "sees", "hears", "serves", "crowns", "banishes", "pardons",
    "condemns", "betrays", "defends", "follows", "forsakes", "honours",
    "praises", "mocks", "scorns", "spares", "strikes", "wounds", "heals",
    "buries", "marries", "murders", "avenges", "judges", "vexes",
    "amazes", "dazzles", "quiets", "awakes", "summons", "beseeches",
]

OBJECTS = [
    "the crown", "the throne", "the grave", "the law", "the letter",
    "the ring", "the sword", "the cup", "the rose", "the garden",
    "the city gates", "the old oak", "the holy church", "the river",
    "the market place", "the prison", "the tower", "the seal",
    "a thousand crowns", "a poor man's purse", "a jewel of price",
    "a cup of wine", "a loyal heart", "a traitor's tongue", "a widow's tear",
    "an honest name", "his father's ghost", "her mother's blessing",
    "my lady's hand", "my master's horse", "the queen's pardon",
    "the king's command", "the duke's decree", "the friar's counsel",
    "the people's voice", "the beggar's bowl", "the soldier's oath",
    "the sexton's spade", "the zealous friar", "the quiet grave",
]

QUALITIES = [
    "sweet", "bitter", "gentle", "cruel", "noble", "base", "brave",
    "fearful", "gracious", "wicked", "honest", "false", "loyal", "proud",
    "humble", "jealous", "merry", "sad", "quick", "slow", "young", "old",
    "fair", "foul", "rich", "poor", "wise", "foolish", "bloody", "holy",
    "quiet", "lazy", "zealous", "vexed", "joyful", "anxious", "dozen-tongued",
    "well-spoken", "ill-starred", "new-crowned", "half-mad", "stone-cold",
]

PLACES = [
    "in the garden", "at the gates", "upon the walls", "in the tower",
    "by the river", "at the market", "in the church", "on the heath",
    "in fair Verona", "in the senate house", "at the friar's cell",
    "beneath the moon", "before the palace", "within the prison",
    "beyond the sea", "under the old oak", "in the queen's chamber",
    "upon the scaffold", "at the city wall", "in the cold night",
]

VOCATIVES = [
    "my lord", "my lady", "good sir", "sweet cousin", "gentle friend",
    "good my lord", "dear heart", "noble sir", "good fellow", "sirrah",
    "your grace", "your majesty", "good nurse", "honest friar", "brave soldier",
]

CLAUSES = [
    "'tis not the quarrel of a day", "'twas never thus before",
    "ne'er was a night so long", "o'er the hills the horsemen ride",
    "the hour is almost come", "the deed is yet to do", "there's villainy afoot",
    "the time is out of joint", "heaven's will be done", "all's not well",
    "the jest is done", "mischief is awake", "the quarrel is but young",
    "my heart misgives me", "the crown sits heavy", "the grave is patient",
    "words are but wind", "blood will have blood", "the wheel is come full circle",
    "what's done cannot be undone", "the rest is silence", "truth will out",
]

STAGE = [
    "Flourish. Exeunt all, &c.", "Sound a sennet. Enter the KING, &c.",
    "Alarum. Exeunt fighting, &c.", "Enter the watch with torches, &c.",
    "A march sounded. Exeunt in state, &c.", "Trumpets. Enter the court, &c.",
]

RARE_DOLLAR = [
    "He keeps his gold in bags marked with a $.",
    "A purse of $ and silver for the gatekeeper.",
    "The pirate's chest bore a great $ upon the lid.",
]


def _sentence(rng: np.random.Generator) -> str:
    """One grammar-sampled sentence, already punctuated."""
    r = rng.random()
    parts = []
    if rng.random() < 0.35:
        opener = OPENERS[rng.integers(len(OPENERS))]
        parts.append(opener + ",")
    if r < 0.18:
        # question form
        q = rng.random()
        if q < 0.34:
            core = f"what says {SUBJECTS[rng.integers(len(SUBJECTS))]} of {OBJECTS[rng.integers(len(OBJECTS))]}"
        elif q < 0.67:
            core = f"where is {SUBJECTS[rng.integers(len(SUBJECTS))]} now"
        else:
            core = f"dost thou not see how {SUBJECTS[rng.integers(len(SUBJECTS))]} {VERBS_PLAIN[rng.integers(len(VERBS_PLAIN))]}"
        parts.append(core + "?")
    elif r < 0.30:
        # imperative with vocative
        verb = VERBS_TRANS[rng.integers(len(VERBS_TRANS))].rstrip("s")
        core = f"{verb} {OBJECTS[rng.integers(len(OBJECTS))]}, {VOCATIVES[rng.integers(len(VOCATIVES))]}"
        parts.append(core + ("!" if rng.random() < 0.5 else "."))
    elif r < 0.42:
        # fixed clause, possibly doubled
        core = CLAUSES[rng.integers(len(CLAUSES))]
        if rng.random() < 0.4:
            core += "; " + CLAUSES[rng.integers(len(CLAUSES))]
        parts.append(core + ".")
    else:
        # declarative
        subj = SUBJECTS[rng.integers(len(SUBJECTS))]
        if rng.random() < 0.55:
            verb = VERBS_TRANS[rng.integers(len(VERBS_TRANS))]
            obj = OBJECTS[rng.integers(len(OBJECTS))]
            if rng.random() < 0.35:
                obj = obj.replace("the ", f"the {QUALITIES[rng.integers(len(QUALITIES))]} ", 1)
            core = f"{subj} {verb} {obj}"
        else:
            verb = VERBS_PLAIN[rng.integers(len(VERBS_PLAIN))]
            core = f"{subj} {verb}"
            if rng.random() < 0.5:
                core += " " + PLACES[rng.integers(len(PLACES))]
        if subj == "thou":
            core = core.replace("thou " + verb, "thou " + _thou_form(verb))
        if rng.random() < 0.25:
            core += ", and " + CLAUSES[rng.integers(len(CLAUSES))]
        parts.append(core + _end_mark(rng))
    text = " ".join(parts)
    return text[0].upper() + text[1:]


def _thou_form(verb: str) -> str:
    if verb.endswith(("es",)) and verb[-3] in "xsz":
        return verb[:-2] + "est"
    if verb.endswith("ies"):
        return verb[:-3] + "iest"
    if verb.endswith("s"):
        return verb[:-1] + "st"
    return verb


def _end_mark(rng: np.random.Generator) -> str:
    return "!" if 0.72 <= rng.random() < 0.88 else "."


def _wrap(text: str, width: int = 46) -> list[str]:
    words = text.split(" ")
    lines, cur = [], ""
    for w in words:
        if cur and len(cur) + 1 + len(w) > width:
            lines.append(cur)
            cur = w
        else:
            cur = f"{cur} {w}" if cur else w
    if cur:
        lines.append(cur)
    return lines


def generate_corpus(n_chars: int = 1_100_000, seed: int = 1337) -> str:
    """Build a play-formatted corpus of roughly n_chars characters.

    Scenes pick a small cast that alternates turns, giving the text
    mid-range structure on top of word spelling and phrase grammar.
    """
    rng = np.random.default_rng(seed)
    pieces = []
    total = 0
    turn_count = 0
    cast = []
    while total < n_chars:
        if not cast or rng.random() < 0.04:
            # new scene: header plus a fresh cast of speakers
            cast = [SPEAKERS[i] for i in rng.choice(len(SPEAKERS), size=int(rng.integers(2, 5)),
                                                    replace=False)]
            header = "ACT 3. SCENE 3.\n\n" if rng.random() < 0.5 else ""
            if header:
                pieces.append(header)
                total += len(header)
        speaker = cast[turn_count % len(cast)] if rng.random() < 0.8 else cast[int(rng.integers(len(cast)))]
        turn_count += 1
        n_sentences = int(rng.integers(1, 4))
        sentences = [_sentence(rng) for _ in range(n_sentences)]
        body = "\n".join(_wrap(" ".join(sentences)))
        block = f"{speaker}:\n{body}\n\n"
        pieces.append(block)
        total += len(block)
        if rng.random() < 0.02:
            line = STAGE[int(rng.integers(len(STAGE)))] + "\n\n"
            pieces.append(line)
            total += len(line)
        if rng.random() < 0.004:
            line = RARE_DOLLAR[int(rng.integers(len(RARE_DOLLAR)))] + "\n\n"
            pieces.append(line)
            total += len(line)
    text = "".join(pieces)
    extra = sorted(set(text) - set(VOCAB_65))
    assert not extra, f"generator produced characters outside the 65-char set: {extra}"
    return text


def main(argv=None):
    import argparse

    ap = argparse.ArgumentParser(description="Write the synthetic play corpus to a file.")
    ap.add_argument("--out", required=True, help="output path (UTF-8 text)")
    ap.add_argument("--chars", type=int, default=1_100_000)
    ap.add_argument("--seed", type=int, default=1337)
    args = ap.parse_args(argv)
    if args.chars < 1:
        ap.exit(2, f"error: --chars must be >= 1, got {args.chars}\n")
    if args.seed < 0:
        ap.exit(2, f"error: --seed must be >= 0, got {args.seed}\n")
    text = generate_corpus(args.chars, args.seed)
    try:
        write_file(args.out, text.encode("utf-8"))
    except OutputError as exc:
        ap.exit(2, f"error: {exc}\n")
    print(f"wrote {len(text)} chars, {len(set(text))} distinct, to {args.out}")


if __name__ == "__main__":
    main()
