"""The guideline book read as declared records: one-field edits of a book, error paths, and the
defaults a book resolves when it is built."""

import copy
import json

import pytest

from motionkit import errors
from motionkit.behavior import BehaviorLabel, GuidelineBook, Safety, label_safety, load_guidelines

BEHAVIORS = [b.value for b in BehaviorLabel]

# Type "a" declares a default and lists two behaviors; type "b" declares none and lists all eight.
BOOK = {
    "a": {
        "default": "unsafe",
        "entries": [
            {"behavior": "NotMoving", "safety": "safe", "template": "Stay put."},
            {"behavior": "Stopping", "safety": "unsafe", "template": "Do not stop here."},
        ],
    },
    "b": {
        "entries": [
            {"behavior": b, "safety": "safe" if i % 2 else "unsafe", "template": f"Template {i}."}
            for i, b in enumerate(BEHAVIORS)
        ],
    },
}

# Each edited path as its keys: a type, its two fields, its first two entries and their fields.
PATHS = [
    path
    for t in BOOK
    for path in (
        (t,),
        (t, "default"),
        (t, "entries"),
        *((t, "entries", i, *field) for i in (0, 1) for field in ((), ("behavior",), ("safety",), ("template",)))
    )
]
EDITS = [("delete", None)] + [("set", v) for v in (None, True, 3, 1.5, "x", ["safe"], {"safe": "NotMoving"})]


def path_text(path: tuple) -> str:
    """``("a", "entries", 0, "behavior")`` as ``a.entries[0].behavior``."""
    text = path[0]
    for key in path[1:]:
        text += f"[{key}]" if isinstance(key, int) else f".{key}"
    return text


@pytest.mark.parametrize("edit", EDITS, ids=[f"{a}-{json.dumps(v)}" for a, v in EDITS])
@pytest.mark.parametrize("path", PATHS, ids=map(path_text, PATHS))
def test_one_edit_loads_or_raises_a_book_error_on_its_path(path, edit):
    """A book with one field deleted or set to one JSON value either loads or raises SchemaError,
    CapError or CoverageError, whose message begins with the edited path or a path that holds it."""
    doc = copy.deepcopy(BOOK)
    *parents, key = path
    target = doc
    for parent in parents:
        target = target[parent]
    action, value = edit
    if action == "set":
        target[key] = value
    elif isinstance(target, list):
        del target[key]
    else:
        target.pop(key, None)
    try:
        load_guidelines(json.dumps(doc))
    except (errors.SchemaError, errors.CapError, errors.CoverageError) as exc:
        head = str(exc).split(":")[0].split(" ")[0]
        edited = path_text(path)
        assert edited == head or edited.startswith((f"{head}.", f"{head}[")), (edited, str(exc))


@pytest.mark.parametrize(
    "spec,message",
    [
        (
            {"default": "safe", "entries": [{"behavior": "Flying", "safety": "safe", "template": "x"}]},
            "t.entries[0].behavior: 'Flying' is not a valid BehaviorLabel",
        ),
        ({"default": "safe", "x": 1}, "t: unexpected field(s) ['x']"),
        (
            {"default": "safe", "entries": [BOOK["a"]["entries"][0], {"behavior": "Stopping", "safety": "safe"}]},
            "t.entries[1]: missing required field 'template'",
        ),
        ({"default": ["safe"]}, "t.default: ['safe'] is not a valid Verdict"),
        ({"default": "safe", "entries": 3}, "t.entries must be a list of objects, got 3"),
        (
            {"default": "safe", "entries": [dict(BOOK["a"]["entries"][0], template="")]},
            "t: BehaviorLabel.NOT_MOVING must map to a (Safety, non-empty str) pair, got (<Safety.SAFE: 'Safe'>, '')",
        ),
        (
            {"default": "safe", "entries": [BOOK["a"]["entries"][0]] * 2},
            "t.entries[1]: duplicate entry for behavior NotMoving",
        ),
        (
            {"default": "safe", "entries": [BOOK["a"]["entries"][0], "x"]},
            't.entries must be a list of objects; t.entries[1] is "x"',
        ),
        ({"default": "safe", "entries": [dict(BOOK["a"]["entries"][0], template=3)]}, "t.entries[0].template must be a string"),
    ],
)
def test_errors_name_their_path(spec, message):
    with pytest.raises(errors.SchemaError) as info:
        load_guidelines(json.dumps({"t": spec}))
    assert str(info.value) == message


def test_a_book_built_in_code_resolves_its_defaults():
    """Each behavior a type leaves out gets the type's default and the template made from its
    phrase; ``label_safety`` reads it as it reads a listed entry."""
    entries = {("quiet_road", BehaviorLabel.NOT_MOVING): (Safety.UNSAFE, "Move on.")}
    book = GuidelineBook(entries=entries, defaults={"quiet_road": Safety.SAFE})
    assert len(book.entries) == 8
    assert label_safety("quiet_road", BehaviorLabel.NOT_MOVING, book) == (Safety.UNSAFE, "Move on.")
    assert label_safety("quiet_road", BehaviorLabel.SLOWING_THEN_SPEEDING, book) == (
        Safety.SAFE,
        "Slowing down then speeding up is considered safe in a quiet road scenario.",
    )


def test_a_book_built_in_code_without_a_default_must_cover_every_behavior():
    entries = {("t", b): (Safety.SAFE, "x") for b in BehaviorLabel if b is not BehaviorLabel.STOPPING}
    with pytest.raises(errors.CoverageError, match=r"^t: behaviors \['Stopping'\] unlisted and no default declared$"):
        GuidelineBook(entries=entries, defaults={"t": None})


@pytest.mark.parametrize(
    "entries,defaults,message",
    [
        ({}, {"t": "safe"}, "t: default must be a Safety or None, got 'safe'"),
        ({("t", BehaviorLabel.STOPPING): ("Safe", 5)}, {"t": Safety.SAFE}, "t: BehaviorLabel.STOPPING must map to"),
        ({("t", BehaviorLabel.STOPPING): (Safety.SAFE, "")}, {"t": Safety.SAFE}, "t: BehaviorLabel.STOPPING must map to"),
        ({("t", BehaviorLabel.STOPPING): Safety.SAFE}, {"t": Safety.SAFE}, "t: BehaviorLabel.STOPPING must map to"),
    ],
    ids=["string_default", "string_verdict", "empty_template", "verdict_alone"],
)
def test_a_book_built_in_code_is_checked_like_a_loaded_one(entries, defaults, message):
    """A default that is not a Safety or None, or an entry that is not a (Safety, non-empty
    template) pair, raises SchemaError naming the type and behavior."""
    with pytest.raises(errors.SchemaError) as info:
        GuidelineBook(entries=entries, defaults=defaults)
    assert str(info.value).startswith(message)


@pytest.mark.parametrize(
    "key",
    [
        ("t", "Stopping"),
        ("u", BehaviorLabel.STOPPING),
        "t",
        ("t", BehaviorLabel.STOPPING, "x"),
        (BehaviorLabel.STOPPING, "t"),
    ],
    ids=["string_behavior", "type_not_in_defaults", "not_a_pair", "triple", "swapped"],
)
def test_a_book_built_in_code_checks_its_entry_keys(key):
    """An entry key that is not a (type of ``defaults``, BehaviorLabel) pair raises SchemaError
    naming the key: ``label_safety`` could never read it, and the type's default would answer in
    its place."""
    with pytest.raises(errors.SchemaError) as info:
        GuidelineBook(entries={key: (Safety.UNSAFE, "x")}, defaults={"t": Safety.SAFE})
    assert str(info.value) == f"entry key {key!r} must be a (str, BehaviorLabel) pair of a type in defaults"
