"""The README's examples: every Python block runs, every JSON block builds."""

import json
import re
from pathlib import Path

import numpy as np

from ranksieve import DatasetSchema, MCConfig, sieve_spec_from_json

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(language):
    return re.findall(rf"```{language}\n(.*?)```", README, flags=re.DOTALL)


def test_python_blocks_run_in_one_namespace():
    blocks = _blocks("python")
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["curve_local"].shape == (101,)


def test_json_blocks_build():
    built = set()
    z = np.random.default_rng(0).normal(size=(50, 2))
    for block in _blocks("json"):
        obj = json.loads(block)
        if "components" in obj:
            assert sieve_spec_from_json(obj, z=z).n_free > 0
            built.add("sieve")
        elif "y_column" in obj:
            assert DatasetSchema.from_dict(obj).w_columns == ("w",)
            built.add("schema")
        else:
            assert MCConfig.from_dict(obj).K == (3, 4, 5, 6)
            built.add("mc")
    assert built == {"sieve", "schema", "mc"}
