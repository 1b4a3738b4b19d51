"""``durable.json_field``: the one reading of a parsed document's fields."""

import math

import pytest

from repro.core.durable import REQUIRED, json_field, json_value
from repro.errors import CampaignError
from repro.simgrid.errors import ConfigurationError


@pytest.mark.parametrize(
    "doc, kind, default, expected",
    [
        ({"k": "x"}, str, REQUIRED, "x"),
        ({}, str, "d", "d"),
        ({"k": None}, str, None, None),
        ({}, str, None, None),
        ({"k": False}, bool, True, False),
        ({"k": 2.0}, int, REQUIRED, 2),
        ({"k": 2}, float, REQUIRED, 2.0),
        ({"k": {"a": 1}}, dict, REQUIRED, {"a": 1}),
        ({"k": None}, object, REQUIRED, None),
    ],
)
def test_a_field_of_its_kind_is_read(doc, kind, default, expected):
    value = json_field(doc, "k", kind, default)
    assert value == expected and type(value) is type(expected)


@pytest.mark.parametrize(
    "doc, kind, default, message",
    [
        ({}, str, REQUIRED, "requires key 'k'"),
        ({"k": 7}, str, REQUIRED, "'k' must be a string, got 7"),
        ({"k": None}, str, "d", "'k' must be a string, got None"),
        ({"k": "no"}, bool, False, "'k' must be a boolean"),
        ({"k": 1}, bool, False, "'k' must be a boolean"),
        ({"k": "4"}, int, REQUIRED, "'k' must be an integer"),
        ({"k": 1.9}, int, REQUIRED, "'k' must be an integer"),
        ({"k": math.nan}, float, REQUIRED, "'k' must be a finite number"),
        ({"k": (1, 2)}, list, REQUIRED, "'k' must be a list"),
        ({"k": [1]}, dict, REQUIRED, "'k' must be an object"),
    ],
)
def test_anything_else_is_refused_naming_the_field(doc, kind, default, message):
    with pytest.raises(ConfigurationError, match=message):
        json_field(doc, "k", kind, default, where="entry 'e': ")


def test_list_items_are_read_as_one_kind_and_named_by_index():
    assert json_field({"k": [1, 2.0]}, "k", list, of=int) == [1, 2]
    with pytest.raises(ConfigurationError, match=r"'k\[1\]' must be a string"):
        json_field({"k": ["a", 7]}, "k", list, of=str)


def test_an_object_may_refuse_unknown_keys():
    assert json_value("o", {"a": 1}, dict, known=("a", "b")) == {"a": 1}
    with pytest.raises(ConfigurationError, match=r"unknown key\(s\) \['c'\] in 'o'"):
        json_value("o", {"a": 1, "c": 2}, dict, known=("a", "b"))


def test_a_loader_chooses_the_class_of_its_refusals_but_not_of_numbers():
    with pytest.raises(CampaignError, match="requires key 'k'"):
        json_field({}, "k", str, error=CampaignError)
    with pytest.raises(CampaignError, match="must be a string"):
        json_field({"k": 7}, "k", str, error=CampaignError)
    with pytest.raises(ConfigurationError, match="must be a finite number"):
        json_field({"k": "7"}, "k", float, error=CampaignError)
