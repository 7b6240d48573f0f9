"""Tests for the extraction service and its JSON-lines request loop."""

import io
import json

import pytest

from repro.registry import WrapperRegistry
from repro.service import ExtractionService, serve_loop
from tests.conftest import FIGURE3_P1, FIGURE3_P2, FIGURE3_P3

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
PAGES = [FIGURE3_P1, FIGURE3_P2, FIGURE3_P3]


def extract_request(request_id, source="req"):
    return {
        "id": request_id,
        "sod": SOD,
        "pages": PAGES,
        "dicts": DICTS,
        "source": source,
    }


@pytest.fixture()
def service(tmp_path):
    return ExtractionService(WrapperRegistry(tmp_path))


class TestExtractionService:
    def test_cold_then_warm_identical_objects(self, service):
        cold = service.handle(extract_request(1, source="cold"))
        warm = service.handle(extract_request(2, source="warm"))
        assert cold["ok"] and cold["outcome"] == "miss"
        assert warm["ok"] and warm["outcome"] == "hit"
        assert warm["objects"] == cold["objects"]
        assert cold["objects"][0]["artist"] == "Metallica"

    def test_runners_are_memoized_per_sod_and_dicts(self, service):
        service.handle(extract_request(1))
        service.handle(extract_request(2))
        assert service.stats()["runners"] == 1
        other = extract_request(3)
        other["dicts"] = {"artist": ["Metallica"]}
        service.handle(other)
        assert service.stats()["runners"] == 2

    def test_stats_counters(self, service):
        service.handle(extract_request(1))
        service.handle(extract_request(2))
        stats = service.handle({"id": 3, "cmd": "stats"})["stats"]
        assert stats["requests"] == 2
        assert stats["requests_failed"] == 0
        assert stats["registry"]["hits"] == 1
        assert stats["registry"]["misses"] == 1
        assert stats["registry"]["stores"] == 1

    def test_lost_entry_file_is_induced_and_stored_again(self, service):
        cold = service.handle(extract_request(1))
        ((signature, __),) = service.registry.index_rows()
        service.registry.entry_path(signature).unlink()
        again = service.handle(extract_request(2))
        assert again["outcome"] == "miss"
        assert service.registry.entry_path(signature).exists()
        warm = service.handle(extract_request(3))
        assert warm["outcome"] == "hit"
        assert warm["objects"] == again["objects"] == cold["objects"]
        stats = service.registry.stats()
        assert (stats["hits"], stats["misses"], stats["races"]) == (1, 2, 0)
        assert service.registry.verify() == []

    def test_request_validation(self, service):
        assert not service.handle({"id": 1, "pages": PAGES})["ok"]
        assert not service.handle({"id": 2, "sod": SOD, "pages": []})["ok"]
        assert not service.handle({"id": 3, "cmd": "bogus"})["ok"]
        assert not service.handle(["not", "an", "object"])["ok"]

    def test_errors_are_isolated_per_request(self, service):
        broken = extract_request(1)
        broken["sod"] = "broken(("
        response = service.handle(broken)
        assert response["ok"] is False
        assert response["id"] == 1
        assert "error" in response
        # The loop survives: the next request still extracts.
        assert service.handle(extract_request(2))["ok"]
        assert service.stats()["requests_failed"] == 1

    def test_bad_dicts_rejected(self, service):
        request = extract_request(1)
        request["dicts"] = ["not", "a", "mapping"]
        assert service.handle(request)["ok"] is False


class TestServeLoop:
    def run_loop(self, tmp_path, requests, extra_text=""):
        stdin = io.StringIO(
            "\n".join(json.dumps(r) for r in requests) + "\n" + extra_text
        )
        stdout = io.StringIO()
        served = serve_loop(WrapperRegistry(tmp_path), stdin, stdout)
        responses = [
            json.loads(line) for line in stdout.getvalue().splitlines()
        ]
        return served, responses

    def test_cold_warm_stats_shutdown(self, tmp_path):
        served, responses = self.run_loop(
            tmp_path,
            [
                extract_request(1, source="cold"),
                extract_request(2, source="warm"),
                {"id": 3, "cmd": "stats"},
                {"id": 4, "cmd": "shutdown"},
            ],
        )
        assert served == 4
        cold, warm, stats, bye = responses
        assert cold["outcome"] == "miss" and warm["outcome"] == "hit"
        assert warm["objects"] == cold["objects"]
        assert stats["stats"]["registry"]["hits"] == 1
        assert bye["shutdown"] is True

    def test_shutdown_stops_reading(self, tmp_path):
        served, responses = self.run_loop(
            tmp_path,
            [{"id": 1, "cmd": "shutdown"}, {"id": 2, "cmd": "stats"}],
        )
        assert served == 1
        assert len(responses) == 1

    def test_invalid_json_line_gets_error_response(self, tmp_path):
        served, responses = self.run_loop(
            tmp_path,
            [{"id": 1, "cmd": "stats"}],
            extra_text="{definitely not json\n",
        )
        assert served == 1
        assert responses[0]["ok"] is True
        assert responses[1]["ok"] is False
        assert "not valid JSON" in responses[1]["error"]

    def test_blank_lines_are_skipped(self, tmp_path):
        stdin = io.StringIO('\n\n{"id": 1, "cmd": "stats"}\n\n')
        stdout = io.StringIO()
        served = serve_loop(WrapperRegistry(tmp_path), stdin, stdout)
        assert served == 1

    def test_eof_without_shutdown_ends_loop(self, tmp_path):
        served, responses = self.run_loop(tmp_path, [{"id": 1, "cmd": "stats"}])
        assert served == 1
        assert responses[-1].get("shutdown") is None


class TestProtocolEdges:
    """Malformed protocol input: typed errors, loop alive, counters sane."""

    def run_lines(self, tmp_path, lines):
        stdin = io.StringIO("".join(line + "\n" for line in lines))
        stdout = io.StringIO()
        served = serve_loop(WrapperRegistry(tmp_path), stdin, stdout)
        responses = [
            json.loads(line) for line in stdout.getvalue().splitlines()
        ]
        return served, responses

    def test_truncated_json_line_keeps_loop_alive(self, tmp_path):
        served, responses = self.run_lines(
            tmp_path,
            [
                '{"id": 1, "cmd": "sta',  # truncated mid-object
                json.dumps({"id": 2, "cmd": "stats"}),
                json.dumps({"id": 3, "cmd": "shutdown"}),
            ],
        )
        truncated, stats, bye = responses
        assert truncated["ok"] is False
        assert truncated["id"] is None
        assert "not valid JSON" in truncated["error"]
        # The garbage line was never a served request, and no extraction
        # was attempted or failed on its account.
        assert served == 2
        assert stats["stats"]["requests"] == 0
        assert stats["stats"]["requests_failed"] == 0
        assert bye["shutdown"] is True

    def test_non_dict_payload_gets_typed_error(self, tmp_path):
        served, responses = self.run_lines(
            tmp_path,
            [
                json.dumps(["not", "an", "object"]),
                json.dumps('"just a string"'),
                json.dumps({"id": 2, "cmd": "stats"}),
            ],
        )
        assert served == 3
        for response in responses[:2]:
            assert response["ok"] is False
            assert response["id"] is None
            assert "must be a JSON object" in response["error"]
        assert responses[2]["ok"] is True
        assert responses[2]["stats"]["requests"] == 0

    def test_unknown_request_keys_rejected_with_names(self, tmp_path):
        served, responses = self.run_lines(
            tmp_path,
            [
                json.dumps({"id": 7, "cmd": "stats", "verbose": True}),
                json.dumps({"id": 8, "sod": "a(b)", "payges": []}),
                json.dumps({"id": 9, "cmd": "stats"}),
            ],
        )
        assert served == 3
        first, second, stats = responses
        assert first["ok"] is False and first["id"] == 7
        assert "'verbose'" in first["error"]
        assert second["ok"] is False and second["id"] == 8
        assert "'payges'" in second["error"]
        assert "known:" in second["error"]
        # Rejected-before-dispatch requests never reach the extraction
        # counters, and nothing counts as an internal failure.
        assert stats["stats"]["requests"] == 0
        assert stats["stats"]["requests_failed"] == 0

    def test_loop_survives_mixed_garbage_then_extracts(self, tmp_path):
        served, responses = self.run_lines(
            tmp_path,
            [
                '{"broken',
                json.dumps([1, 2]),
                json.dumps({"id": 1, "bogus_key": 1}),
                json.dumps(extract_request(2, source="after-garbage")),
            ],
        )
        assert served == 3  # bad-JSON line is not a served request
        assert [r["ok"] for r in responses] == [False, False, False, True]
        assert responses[-1]["outcome"] == "miss"
        assert responses[-1]["objects"]
