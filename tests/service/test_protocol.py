"""Wire-protocol unit tests: request validation, content-addressed job
identity, and NDJSON event framing."""

import pytest

from repro.service.protocol import (
    JobRequest,
    ProtocolError,
    decode_event,
    encode_event,
    parse_job_request,
    rejection_body,
)

SPEC = {"models": ["alexnet", "mobilenet"], "schemes": ["np", "bp"]}


class TestSweepParsing:
    def test_preset_resolves_to_jobs(self):
        request = parse_job_request({"kind": "sweep", "preset": "fig3-inference"})
        assert request.kind == "sweep"
        assert request.preset == "fig3-inference"
        assert len(request.jobs()) > 0
        assert all(job.executor for job in request.jobs())

    def test_spec_resolves_to_grid(self):
        request = parse_job_request({"kind": "sweep", "spec": SPEC})
        assert len(request.jobs()) == 4  # 2 models x 2 schemes
        assert request.spec["models"] == ["alexnet", "mobilenet"]

    def test_unknown_preset_is_protocol_error(self):
        with pytest.raises(ProtocolError, match="no-such-sweep"):
            parse_job_request({"kind": "sweep", "preset": "no-such-sweep"})

    def test_preset_and_spec_are_exclusive(self):
        with pytest.raises(ProtocolError, match="exactly one"):
            parse_job_request({"kind": "sweep", "preset": "fig3-inference",
                               "spec": SPEC})
        with pytest.raises(ProtocolError, match="exactly one"):
            parse_job_request({"kind": "sweep"})

    def test_unknown_spec_field_rejected(self):
        with pytest.raises(ProtocolError, match="unknown spec field"):
            parse_job_request({"kind": "sweep",
                               "spec": {"models": ["alexnet"], "model": "x"}})

    def test_non_list_models_rejected_at_submission(self):
        """``models`` is checked like ``schemes``: a 400, not a 500 from
        a ``TypeError``."""
        for models in (5, [], ["alexnet", 3]):
            with pytest.raises(ProtocolError, match="'spec.models' must be"):
                parse_job_request({"kind": "sweep", "spec": {"models": models}})

    def test_unknown_model_rejected_at_submission(self):
        with pytest.raises(ProtocolError, match="invalid sweep spec"):
            parse_job_request({"kind": "sweep",
                               "spec": {"models": ["not-a-model"]}})

    def test_unknown_config_override_rejected_at_submission(self):
        with pytest.raises(ProtocolError, match="unsupported config overrides"):
            parse_job_request({"kind": "sweep",
                               "spec": {"models": ["alexnet"],
                                        "configs": [{"bogus": 1}]}})

    @pytest.mark.parametrize("config,match", [
        ({"dram_bandwidth_gbps": -5}, "dram_bandwidth_gbps must be a positive finite"),
        ({"dram_bandwidth_gbps": 0}, "dram_bandwidth_gbps must be a positive finite"),
        ({"dram_bandwidth_gbps": True}, "dram_bandwidth_gbps must be a positive finite"),
        ({"dram_bandwidth_gbps": "34"}, "dram_bandwidth_gbps must be a positive finite"),
        ({"freq_mhz": -700.0}, "freq_mhz must be a positive finite"),
        ({"pe_rows": 2.5}, "pe_rows must be a positive integer"),
        ({"vector_lanes": -1}, "vector_lanes must be a positive integer"),
        ({"vector_lanes": 0}, "vector_lanes must be a positive integer"),
        ({"sram_bytes": True}, "sram_bytes must be a positive integer"),
    ], ids=["negative-bandwidth", "zero-bandwidth", "bool-bandwidth",
            "string-bandwidth", "negative-freq", "fractional-pe-rows",
            "negative-lanes", "zero-lanes", "bool-sram"])
    def test_malformed_config_value_rejected_at_submission(self, config, match):
        """A config value that would time a silently wrong row, or fail
        as a flight, is a 400 at submission."""
        with pytest.raises(ProtocolError, match=f"invalid sweep spec: {match}"):
            parse_job_request({"kind": "sweep",
                               "spec": {"models": ["alexnet"],
                                        "configs": [config]}})

    @pytest.mark.parametrize("scheme,match", [
        (["bp", {"bogus": 1}], "bogus"),
        (["np", {"cache_bytes": 1}], "no parameters"),
        (["bp"], "invalid sweep spec"),
    ], ids=["unknown-param", "np-with-params", "no-params-object"])
    def test_bad_scheme_entry_rejected_at_submission(self, scheme, match):
        with pytest.raises(ProtocolError, match=match):
            parse_job_request({"kind": "sweep",
                               "spec": {"models": ["alexnet"],
                                        "schemes": [scheme]}})

    @pytest.mark.parametrize("spec", [
        {"models": ["alexnet"], "configs": [{"dram_bandwidth_gbps": 12.5}]},
        {"models": ["alexnet"],
         "schemes": ["np", ["bp", {"cache_bytes": 262144}]]},
        SPEC,
    ], ids=["configs", "scheme-params", "plain"])
    def test_resubmit_body_roundtrips_to_same_key(self, spec):
        request = parse_job_request({"kind": "sweep", "spec": spec})
        again = parse_job_request(request.resubmit_body())
        assert again.key("fp") == request.key("fp")
        assert again.jobs() == request.jobs()

    def test_unknown_kind(self):
        with pytest.raises(ProtocolError, match="unknown job kind"):
            parse_job_request({"kind": "bake-cookies"})
        with pytest.raises(ProtocolError):
            parse_job_request(["not", "an", "object"])


class TestPipelineParsing:
    def test_defaults_filled_canonically(self):
        request = parse_job_request({"kind": "pipeline", "workload": "streaming",
                                     "params": {"nbytes": 1 << 20}})
        assert request.kind == "pipeline"
        (job,) = request.jobs()
        assert job.executor == "pipeline_run"
        assert request.params["workload"] == "streaming"
        assert request.params["chunk_requests"] > 0
        assert isinstance(request.params["schemes"], list)

    def test_unknown_workload_rejected(self):
        with pytest.raises(ProtocolError, match="invalid pipeline request"):
            parse_job_request({"kind": "pipeline", "workload": "gpt9000"})

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ProtocolError, match="invalid pipeline request"):
            parse_job_request({"kind": "pipeline", "workload": "streaming",
                               "schemes": ["np", "rot13"],
                               "params": {"nbytes": 1 << 20}})

    def test_bad_chunk_requests_rejected(self):
        with pytest.raises(ProtocolError, match="chunk_requests"):
            parse_job_request({"kind": "pipeline", "workload": "streaming",
                               "chunk_requests": 0,
                               "params": {"nbytes": 1 << 20}})

    def test_bool_chunk_requests_rejected(self):
        with pytest.raises(ProtocolError, match="chunk_requests"):
            parse_job_request({"kind": "pipeline", "workload": "streaming",
                               "chunk_requests": True,
                               "params": {"nbytes": 1 << 20}})

    @pytest.mark.parametrize("workload,params", [
        ("streaming", {"nbytes": -64}),
        ("streaming", {"nbytes": 0}),
        ("random", {"n_requests": 0, "span_bytes": 4096}),
    ], ids=["negative-nbytes", "zero-nbytes", "zero-random"])
    def test_pipeline_without_requests_rejected(self, workload, params):
        """A trace of no requests has no cycles to compare: refused at
        submission, not run into NaN slowdowns."""
        with pytest.raises(ProtocolError, match="yields no requests"):
            parse_job_request({"kind": "pipeline", "workload": workload,
                               "params": params})

    @pytest.mark.parametrize("workload,params", [
        ("gpt2", {"tokens": 1.5, "layers": 1}),
        ("gpt2", {"context": 2.5, "layers": 1}),
        ("gpt2", {"seed": "x", "layers": 1}),
        ("random", {"n_requests": 16, "span_bytes": 4096, "seed": "x"}),
        ("random", {"n_requests": 16.5, "span_bytes": 4096}),
        ("random", {"n_requests": 16, "span_bytes": 4096, "seed": True}),
        ("streaming", {"nbytes": 4096.5}),
    ], ids=["float-tokens", "float-context", "str-seed", "random-str-seed",
            "float-n-requests", "bool-seed", "float-nbytes"])
    def test_non_integer_trace_parameters_rejected(self, workload, params):
        """A trace parameter that is not an integer (a ``bool`` is not
        one) is a 400 at submission, not a flight that fails later with
        a ``TypeError``, or a ``streaming`` trace of 4096.5 bytes that
        reads 64.0 requests."""
        with pytest.raises(ProtocolError, match="must be an integer"):
            parse_job_request({"kind": "pipeline", "workload": workload,
                               "params": params})

    def test_params_may_not_shadow_reserved_fields(self):
        with pytest.raises(ProtocolError, match="may not override"):
            parse_job_request({"kind": "pipeline", "workload": "streaming",
                               "params": {"workload": "random"}})


class TestContentAddressing:
    def test_key_ignores_json_field_order(self):
        a = parse_job_request({"kind": "sweep", "spec": SPEC})
        b = parse_job_request({"kind": "sweep",
                               "spec": {"schemes": ["np", "bp"],
                                        "models": ["alexnet", "mobilenet"]}})
        assert a.key("fp") == b.key("fp")

    def test_key_distinguishes_different_work(self):
        a = parse_job_request({"kind": "sweep", "spec": SPEC})
        b = parse_job_request({"kind": "sweep",
                               "spec": {**SPEC, "schemes": ["np"]}})
        assert a.key("fp") != b.key("fp")

    def test_key_depends_on_code_fingerprint(self):
        request = parse_job_request({"kind": "sweep", "spec": SPEC})
        assert request.key("v1") != request.key("v2")

    def test_pipeline_key_ignores_params_order(self):
        a = parse_job_request({"kind": "pipeline", "workload": "streaming",
                               "params": {"nbytes": 1 << 20, "stride": 64}})
        b = parse_job_request({"kind": "pipeline", "workload": "streaming",
                               "params": {"stride": 64, "nbytes": 1 << 20}})
        assert a.key() == b.key()

    def test_describe_summarizes_without_payload(self):
        request = parse_job_request({"kind": "sweep", "spec": SPEC})
        described = request.describe()
        assert described["kind"] == "sweep"
        assert described["jobs"] == 4


class TestEventFraming:
    def test_roundtrip(self):
        event = {"event": "rows", "index": 3, "rows": [{"a": 1}]}
        assert decode_event(encode_event(event).strip()) == event

    def test_encoding_is_canonical(self):
        a = encode_event({"b": 1, "a": 2, "event": "x"})
        b = encode_event({"event": "x", "a": 2, "b": 1})
        assert a == b  # byte-identical across coalesced subscribers

    def test_decode_rejects_junk(self):
        with pytest.raises(ProtocolError):
            decode_event(b"not json")
        with pytest.raises(ProtocolError):
            decode_event(b"[1, 2]")
        with pytest.raises(ProtocolError):
            decode_event(b'{"no_event_field": true}')

    def test_rejection_body_shape(self):
        body = rejection_body(7, queued=3, running=2)
        assert body == {"error": "saturated", "retry_after": 7,
                        "queued": 3, "running": 2}


class TestJobRequestSurface:
    def test_jobs_returns_a_copy(self):
        request = parse_job_request({"kind": "sweep", "spec": SPEC})
        jobs = request.jobs()
        jobs.clear()
        assert len(request.jobs()) == 4

    def test_key_is_hex_sha256(self):
        key = JobRequest(kind="sweep").key()
        assert len(key) == 64
        int(key, 16)  # parses as hex
