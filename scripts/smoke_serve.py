"""CI smoke test: ``repro serve`` as a subprocess, cold, warm, then mixed.

Starts the service with an empty registry, sends the Figure 3 running
example twice, then once more with one new page of the same template,
plus a stats request, and asserts:

- the cold request induces (``outcome: miss``),
- the warm request is a registry hit (``outcome: hit``),
- both requests extract identical objects,
- the mixed request is a hit whose objects, from cached rows for the old
  pages and a fresh extraction for the new one, equal those of an
  in-process ``ObjectRunner`` with an empty cache over the same registry,
- the stats report records the hits,
- shutdown is acknowledged and the process exits 0.

Run from the repository root: ``PYTHONPATH=src python scripts/smoke_serve.py``.
"""

import json
import subprocess
import sys
import tempfile

SOD = (
    "concert(artist, date<kind=predefined>, "
    "location(theater, address<kind=predefined>?))"
)

DICTS = {
    "artist": ["Metallica", "Coldplay", "Madonna", "Muse"],
    "theater": [
        "Madison Square Garden",
        "Bowery Ballroom",
        "The Town Hall",
        "B.B King Blues and Grill",
    ],
}

PAGES = [
    """
<html><body><li>
<div>Metallica</div>
<div>Monday May 11, 8:00pm</div>
<div>
 <span><a>Madison Square Garden</a></span>
 <span>237 West 42nd street</span>
 <span>New York City</span>
 <span>New York</span>
 <span>10036</span>
</div></li></body></html>
""",
    """
<html><body><li>
<div>Coldplay</div>
<div>Saturday August 8, 2010 8:00pm</div>
<div>
 <span><a>Bowery Ballroom</a></span>
 <span>Delancey St</span>
 <span>New York City</span>
 <span>New York</span>
 <span>10002</span>
</div></li></body></html>
""",
    """
<html><body>
<li>
<div>Madonna</div>
<div>Saturday May 29 7:00p</div>
<div>
 <span><a>The Town Hall</a></span>
 <span>131 W 55th St</span>
 <span>New York City</span>
 <span>New York</span>
 <span>10019</span>
</div></li>
<li>
<div>Muse</div>
<div>Friday June 19 7:00p</div>
<div>
 <span><a>B.B King Blues and Grill</a></span>
 <span>4 Penn Plaza</span>
 <span>New York City</span>
 <span>New York</span>
 <span>10001</span>
</div></li>
</body></html>
""",
]


#: A page the first two requests never sent, of the same template.
NEW_PAGE = """
<html><body><li>
<div>Muse</div>
<div>Sunday July 5 9:00pm</div>
<div>
 <span><a>The Town Hall</a></span>
 <span>123 W 43rd St</span>
 <span>New York City</span>
 <span>New York</span>
 <span>10036</span>
</div></li></body></html>
"""


def library_objects(registry_dir: str, pages: list[str]) -> list[dict]:
    """Objects of an in-process runner with an empty cache over the registry."""
    from repro.core.objectrunner import ObjectRunner
    from repro.recognizers.gazetteer import GazetteerRecognizer
    from repro.recognizers.registry import RecognizerRegistry
    from repro.registry.store import WrapperRegistry
    from repro.sod.dsl import parse_sod

    recognizers = RecognizerRegistry()
    for type_name, values in DICTS.items():
        recognizers.register(GazetteerRecognizer(type_name, values))
    runner = ObjectRunner(
        parse_sod(SOD),
        registry=recognizers,
        wrapper_registry=WrapperRegistry(registry_dir),
    )
    result = runner.run_source("mixed", pages)
    return [instance.values for instance in result.objects]


def main() -> int:
    mixed_pages = PAGES + [NEW_PAGE]
    requests = [
        {"id": 1, "sod": SOD, "pages": PAGES, "dicts": DICTS, "source": "cold"},
        {"id": 2, "sod": SOD, "pages": PAGES, "dicts": DICTS, "source": "warm"},
        {"id": 3, "sod": SOD, "pages": mixed_pages, "dicts": DICTS,
         "source": "mixed"},
        {"id": 4, "cmd": "stats"},
        {"id": 5, "cmd": "shutdown"},
    ]
    with tempfile.TemporaryDirectory() as registry_dir:
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--registry", registry_dir],
            input="\n".join(json.dumps(r) for r in requests) + "\n",
            capture_output=True,
            text=True,
            timeout=300,
        )
        print(proc.stderr, end="", file=sys.stderr)
        if proc.returncode != 0:
            print(f"serve exited {proc.returncode}", file=sys.stderr)
            return 1
        expected_mixed = library_objects(registry_dir, mixed_pages)
    responses = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(responses) == 5, f"expected 5 responses, got {len(responses)}"
    cold, warm, mixed, stats, bye = responses
    assert cold["ok"] and cold["outcome"] == "miss", cold
    assert warm["ok"] and warm["outcome"] == "hit", warm
    assert len(cold["objects"]) == 4, cold["objects"]
    assert cold["objects"][0]["artist"] == "Metallica", cold["objects"][0]
    assert warm["objects"] == cold["objects"], "warm objects differ from cold"
    assert mixed["ok"] and mixed["outcome"] == "hit", mixed
    assert len(mixed["objects"]) == 5, mixed["objects"]
    assert mixed["objects"] == expected_mixed, (
        "mixed objects differ from an empty-cache library run"
    )
    assert stats["stats"]["registry"]["hits"] == 2, stats
    assert bye["shutdown"] is True, bye
    print(
        f"serve smoke OK: {len(cold['objects'])} objects, "
        f"cold=miss warm=hit mixed=hit ({len(mixed['objects'])} objects, "
        "equal to the library), clean shutdown"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
