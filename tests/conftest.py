"""Shared fixtures: the paper's Figure 3 pages and small generated sources.

Also the sleep guard, which ``benchmarks/conftest.py`` imports too.
Every wait of the package (an injected delay fault) goes through the
injectable sleep of :mod:`repro.core.faults`, whose ``wall_sleep`` is
the one real ``time.sleep`` call, so tests fake time and never pay for
a delay.  The guard replaces ``time.sleep`` before any ``repro``
module is imported (so ``from time import sleep`` binds it too) and
fails a sleep called directly from package, test or benchmark code
anywhere but ``wall_sleep``; sleeps the standard library makes for
itself pass through.  It raises where the sleep happens, which also
fails a forked worker's source, and the autouse fixture fails the test
when the error was swallowed.
"""

from __future__ import annotations

import sys
import time

import pytest

_real_sleep = time.sleep
#: ``module.function`` of each guarded sleep in the running test.
STRAY_SLEEPS: list[str] = []


def _guarded_sleep(seconds: float) -> None:
    caller = sys._getframe(1)
    module = str(caller.f_globals.get("__name__"))
    where = f"{module}.{caller.f_code.co_name}"
    if where != "repro.core.faults.wall_sleep" and module.split(".")[0] in (
        "repro",
        "tests",
        "benchmarks",
    ):
        STRAY_SLEEPS.append(where)
        raise AssertionError(
            f"{where} calls time.sleep; take a SleepFn defaulting to "
            "repro.core.faults.wall_sleep"
        )
    _real_sleep(seconds)


time.sleep = _guarded_sleep


@pytest.fixture(autouse=True)
def no_stray_sleep():
    """Fail the test if package or test code slept outside wall_sleep."""
    STRAY_SLEEPS.clear()
    yield
    assert STRAY_SLEEPS == []


# The package is imported only now, with the guard in place.
from repro.datasets import build_knowledge, domain_spec, generate_source
from repro.datasets.sites import SiteSpec
from repro.htmlkit import clean_tree, tidy
from repro.recognizers import GazetteerRecognizer, predefined_recognizer

FIGURE3_P1 = """
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
"""

FIGURE3_P2 = """
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
"""

FIGURE3_P3 = """
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
"""


@pytest.fixture()
def figure3_pages():
    """The running example's three pages, tidied."""
    return [tidy(page) for page in (FIGURE3_P1, FIGURE3_P2, FIGURE3_P3)]


@pytest.fixture()
def figure3_recognizers():
    """Recognizers matching the running example's concert SOD."""
    return [
        GazetteerRecognizer(
            "artist", ["Metallica", "Coldplay", "Madonna", "Muse"]
        ),
        GazetteerRecognizer(
            "theater",
            [
                "Madison Square Garden",
                "Bowery Ballroom",
                "The Town Hall",
                "B.B King Blues and Grill",
            ],
        ),
        predefined_recognizer("date", type_name="date"),
        predefined_recognizer("address", type_name="address"),
    ]


def make_source(domain_name: str, archetype: str = "clean", **kwargs):
    """Generate a small test source (helper, not a fixture)."""
    defaults = dict(total_objects=40, seed=("tests", domain_name, archetype))
    defaults.update(kwargs)
    spec = SiteSpec(
        name=f"test-{domain_name}-{archetype}",
        domain=domain_name,
        archetype=archetype,
        **defaults,
    )
    domain = domain_spec(domain_name)
    return generate_source(spec, domain), domain


def prepared_pages(source):
    """Tidy and clean a generated source's raw pages."""
    return [clean_tree(tidy(raw)) for raw in source.pages]


@pytest.fixture(scope="session")
def albums_clean():
    """A small clean albums source with its domain (session-cached)."""
    spec = SiteSpec(
        name="fixture-albums-clean",
        domain="albums",
        archetype="clean",
        total_objects=40,
        seed=("fixture", "albums"),
    )
    domain = domain_spec("albums")
    return generate_source(spec, domain), domain


@pytest.fixture(scope="session")
def albums_knowledge():
    """Domain knowledge for albums at the paper's 20% coverage."""
    return build_knowledge(domain_spec("albums"), coverage=0.2)


@pytest.fixture(scope="session")
def tiny_capture():
    """One real (tiny) BENCH capture: ObjectRunner and RoadRunner over
    the catalog (session-cached; tests only read it)."""
    from repro.metrics.bench import BenchConfig, BenchSession

    session = BenchSession(
        BenchConfig(scale=0.01, systems=("objectrunner", "roadrunner"))
    )
    return session.capture()
