"""One benchmark run: set up, warm up, measure, check, report."""

from __future__ import annotations

import json
import os
import time

from repro.obs.export import write_chrome_trace
from repro.obs.trace import Tracer

import ledger as ledger_mod
from common import (
    host_record,
    log,
    median,
    peak_rss_mb,
    percentile,
    set_tracers,
    start_pair,
)
from workloads import CheckFailed

#: Cold starts per untraced run; ``setup_s`` is their median.
SETUP_REPS = 2

#: name -> unit of every end-to-end metric, in BENCHMARK.json order.
E2E_UNITS = {
    "setup_s": "s",
    "cot_per_s": "COT/s",
    "req_per_s": "req/s",
    "latency_p50_s": "s",
    "latency_p75_s": "s",
    "first_layer_wait_p50_s": "s",
    "wire_bytes_per_op": "B/op",
    "peak_rss_mb": "MB",
}

#: Producer ops with a busy-time metric.  TPRC (truncation pairs) is
#: left out: only pair-mode truncation draws them, which is not
#: bit-exact, so no workload produces any.
PRODUCE_OPS = ("EXT0", "EXT1", "TRI", "RTRI", "MTRI")
DERIVED_OPS = ("TRI", "RTRI", "MTRI", "TPRC", "ROT0", "ROT1")
#: mux sub-channel tag -> per-layer byte metric.
MUX_GROUPS = {
    "prov/ctl": "prov.ctl", "prov/fwd": "prov.fwd", "prov/rev": "prov.rev",
    "prov/tri": "prov.tri", "prov/rtri": "prov.rtri", "prov/mtri": "prov.mtri",
    "sess/": "sess", "daemon/": "daemon",
}

#: name -> unit of every per-layer metric, in BENCHMARK.json order.
LAYER_UNITS = {
    "host.chacha_ref_s": "s",
    "crypto.prg_expand_s": "s",
    "crypto.prg_calls_per_extend": "count",
    "crypto.crhf_s": "s",
    "crypto.group_exp_s": "s",
    "ot.base_ot_s": "s",
    "ot.base_cots": "count",
    "spcot.mpcot_s": "s",
    "spcot.rounds_per_extend": "count",
    "spcot.bytes_per_extend": "B",
    "lpn.encode_s": "s",
    "ferret.extend_s_p50.fwd": "s",
    "ferret.extend_s_p50.rev": "s",
    "ferret.extends": "count",
    "ferret.ns_per_cot": "ns",
    "pool.stalled_draws": "count",
    "pool.stall_ms_p50": "ms",
    **{f"service.produce_s.{op}": "s" for op in PRODUCE_OPS},
    "service.idle_s": "s",
    **{f"mux.bytes.{g}": "B" for g in MUX_GROUPS.values()},
    "mux.recv_wait_s": "s",
    "daemon.queue_wait_s": "s",
    "daemon.online_s": "s",
    "daemon.rejects": "count",
    "mpc.bit_triples_s": "s",
    "mpc.ring_triples_s": "s",
    "mpc.matrix_triples_s": "s",
    "mpc.relu_online_s": "s",
    "mpc.matmul_online_s": "s",
    "ppml.layer_ready_s": "s",
    "ppml.online_wait_s": "s",
    "obs.trace_overhead": "ratio",
    "ledger.unexplained_frac": "ratio",
}


def _delta(w, party, key) -> float:
    """Change of one telemetry value over a window."""
    return w.tel_after[party].get(key, 0) - w.tel_before[party].get(key, 0)


def _extends(w) -> int:
    """Extends both directions ran during a window."""
    return _delta(w, 0, "ferret/fwd/extends") + _delta(w, 0, "ferret/rev/extends")


def e2e_values(wl, w, setups) -> dict:
    lat = [s[0] for s in w.samples]
    first = [s[1] for s in w.samples]
    # cot_stream: verified COTs delivered, bytes per COT; mlp_serve:
    # COTs the extends produced, bytes per inference request.
    if wl.name == "cot_stream":
        cots, ops = w.cots, w.cots
    else:
        cots, ops = _extends(w) * wl.cfg.net_output, len(w.samples)
    return {
        "setup_s": median(setups) if setups else 0.0,
        "cot_per_s": cots / w.elapsed_s,
        "req_per_s": len(w.samples) / w.elapsed_s,
        "latency_p50_s": median(lat),
        "latency_p75_s": percentile(lat, 75),
        "first_layer_wait_p50_s": median(first),
        "wire_bytes_per_op": w.wire_bytes / ops,
        "peak_rss_mb": peak_rss_mb(),
    }


def _stall_p50_ms(w) -> float:
    """Median stall from the pool/stall_ms histogram delta (both
    parties), interpolated inside its bucket."""
    counts = {}
    for p in (0, 1):
        after = w.tel_after[p].get("pool/stall_ms", {})
        before = w.tel_before[p].get("pool/stall_ms", {})
        for key, value in after.items():
            if key.startswith("le_"):
                counts[key] = counts.get(key, 0) + value - before.get(key, 0)
    total = sum(counts.values())
    if not total:
        return 0.0
    edges = sorted(
        (float("inf") if k == "le_inf" else float(k[3:]), c) for k, c in counts.items()
    )
    seen, lo = 0, 0.0
    for hi, c in edges:
        if c and seen + c >= total / 2:
            if hi == float("inf"):
                return lo
            return lo + (hi - lo) * (total / 2 - seen) / c
        seen += c
        lo = hi
    return lo


def layer_values(wl, spans, names, wall, setup_spans, traced, plain, probes, host) -> tuple:
    """Per-layer metric values and the ledger rows of one traced run
    (``spans`` clipped to the traced window, ``wall`` seconds long)."""
    def party(sp):
        return ledger_mod.party_of(names.get(sp.tid, ""))

    # Layer sums cover the ledger lanes' work (worker and online
    # threads, inside container spans) -- not idle polling elsewhere.
    self_s, dur_s, durs_p0 = {}, {}, {}
    for sp in ledger_mod.lane_spans(spans, names):
        self_s[sp.name] = self_s.get(sp.name, 0.0) + sp.self_s
        dur_s[sp.name] = dur_s.get(sp.name, 0.0) + sp.dur
        if party(sp) == 0:
            durs_p0.setdefault(sp.name, []).append(sp.dur)
    setup_self = {}
    for sp in setup_spans:  # base-OT setup runs on the worker threads
        if ledger_mod.lane_of(names.get(sp.tid, "")) != "worker":
            continue
        setup_self[sp.name] = setup_self.get(sp.name, 0.0) + sp.self_s

    tel = traced.tel_after
    extends = _extends(traced)
    ext_time = sum(durs_p0.get("produce.EXT0", [])) + sum(durs_p0.get("produce.EXT1", []))
    rows = ledger_mod.ledger(spans, names, wall)
    mux = {g: 0 for g in MUX_GROUPS.values()}
    for p in (0, 1):
        for key in tel[p]:
            if key.startswith("mux/") and key.endswith("/bytes_sent"):
                tag = key[len("mux/"):-len("/bytes_sent")]
                for prefix, group in MUX_GROUPS.items():
                    if tag.startswith(prefix):
                        mux[group] += _delta(traced, p, key)
    admits = {}
    queue_waits = []
    for ev in probes.tracers[0].events:
        if ev["name"] == "request.admit" and (ev["args"] or {}).get("verdict") == "admit":
            admits[ev["args"]["seq"]] = ev["ts"]
    for sp in spans:
        if sp.name == "request.online" and party(sp) == 0 and sp.args:
            seq = sp.args.get("seq")
            if seq in admits:
                queue_waits.append(sp.start - admits[seq])
    ready = [
        r.pipe.ready_elapsed(wl.first_gate) for r in traced.requests
        if r.pipe is not None and r.pipe.ready_elapsed(wl.first_gate) is not None
    ]
    headline_traced = e2e_values(wl, traced, [])[wl.headline]
    headline_plain = e2e_values(wl, plain, [])[wl.headline]

    def med(xs):
        return median(xs) if xs else 0.0

    v = {
        "host.chacha_ref_s": host["chacha_ref_s"],
        "crypto.prg_expand_s": self_s.get("crypto.prg_expand", 0.0),
        "crypto.prg_calls_per_extend": tel[0].get("ferret/fwd/last_prg_calls", 0),
        "crypto.crhf_s": self_s.get("crypto.crhf", 0.0),
        "crypto.group_exp_s": setup_self.get("crypto.group_exp", 0.0),
        "ot.base_ot_s": setup_self.get("ot.base_ot", 0.0),
        "ot.base_cots": probes.counts.get("ot.base_ot", 0),
        "spcot.mpcot_s": self_s.get("spcot.mpcot", 0.0),
        "spcot.rounds_per_extend": tel[0].get("ferret/fwd/last_rounds", 0),
        "spcot.bytes_per_extend": sum(
            tel[p].get("ferret/fwd/last_bytes_sent", 0) for p in (0, 1)
        ),
        "lpn.encode_s": self_s.get("lpn.encode", 0.0),
        "ferret.extend_s_p50.fwd": med(durs_p0.get("produce.EXT0", [])),
        "ferret.extend_s_p50.rev": med(durs_p0.get("produce.EXT1", [])),
        "ferret.extends": extends,
        "ferret.ns_per_cot": (
            1e9 * ext_time / (extends * wl.cfg.net_output) if extends else 0.0
        ),
        "pool.stalled_draws": sum(
            _delta(traced, p, key) for p in (0, 1) for key in tel[p]
            if key.startswith("pool/") and key.endswith("/stalled_draws")
        ),
        "pool.stall_ms_p50": _stall_p50_ms(traced),
        **{
            f"service.produce_s.{op}": dur_s.get(f"produce.{op}", 0.0)
            for op in PRODUCE_OPS
        },
        "service.idle_s": sum(r["idle_s"] for r in rows if r["lane"] == "worker"),
        **{f"mux.bytes.{g}": n for g, n in mux.items()},
        "mux.recv_wait_s": self_s.get("mux.recv_wait", 0.0),
        "daemon.queue_wait_s": med(queue_waits),
        "daemon.online_s": med(durs_p0.get("request.online", [])),
        "daemon.rejects": _delta(traced, 0, "daemon/p0/rejected"),
        "mpc.bit_triples_s": self_s.get("mpc.bit_triples", 0.0),
        "mpc.ring_triples_s": self_s.get("mpc.ring_triples", 0.0),
        "mpc.matrix_triples_s": self_s.get("mpc.matrix_triples", 0.0),
        "mpc.relu_online_s": self_s.get("mpc.relu_online", 0.0),
        "mpc.matmul_online_s": self_s.get("mpc.matmul_online", 0.0),
        "ppml.layer_ready_s": med(ready),
        "ppml.online_wait_s": dur_s.get("online.wait", 0.0),
        "obs.trace_overhead": headline_traced / headline_plain,
        "ledger.unexplained_frac": max((r["unexplained_frac"] for r in rows), default=0.0),
    }
    return v, rows


def check_purpose(wl, spans) -> str:
    """The workload-purpose guard; raises CheckFailed when it breaks
    (smoke shapes are too small to carry a purpose: report only)."""
    busy = {op: 0.0 for op in DERIVED_OPS}
    count = 0
    for sp in spans:
        op = sp.name[len("produce."):]
        if sp.name.startswith("produce.") and op in busy:
            busy[op] += sp.dur
            count += 1
    mpc = busy["TRI"] + busy["RTRI"] + busy["MTRI"] + busy["TPRC"]
    if wl.name == "cot_stream":
        ok, what = count == 0, f"{count} derived-production spans (want 0)"
    else:
        share = (busy["TRI"] + busy["TPRC"]) / mpc if mpc else 0.0
        ok = share >= wl.min_comparison_share
        what = f"TRI+TPRC {share:.2f} of mpc production (want >= {wl.min_comparison_share:.2f})"
    if not ok and not wl.smoke:
        raise CheckFailed(f"{wl.name}: workload purpose lost: {what}")
    return what


def _note(wl, w) -> dict:
    n = len(w.samples)
    return {
        "timed_requests": n,
        "warmup_requests": wl.warmup_requests * wl.clients,
        "p75_samples_beyond": n - int(0.75 * n),
        "elapsed_s": round(w.elapsed_s, 4),
        "errors": [str(e) for e in w.errors][:3],
    }


def run_workload(cls, seed: int, seconds: float, trace: bool,
                 smoke: bool = False, trace_out: str = None) -> dict:
    wl = cls(seed, smoke)
    host = host_record()
    print("# host " + json.dumps(host), flush=True)
    tracers = (Tracer(party=0), Tracer(party=1)) if trace else None
    probes = ledger_mod.Probes(tracers) if trace else None
    setups = []
    for i in range(1 if trace else SETUP_REPS):
        if i:
            pair.stop()
        if probes:
            probes.install()
        t_setup = time.perf_counter()
        pair = start_pair(
            wl.cfg, wl.tuning(), seed, make_daemons=wl.make_daemons, tracers=tracers
        )
        setups.append(pair.setup_s)
        log(f"# {wl.name}: setup {i} {pair.setup_s:.2f}s")
    windows = []
    try:
        if probes:
            setup_spans, _ = ledger_mod.collect_spans(
                tracers, t_setup, time.perf_counter()
            )
            probes.remove()
            set_tracers(pair, None)
        pair.extra["draws_at_start"] = pair.svcs[0].session_draw_counts()
        windows.append(wl.run_window(pair, 0.0, warmup=True))
        windows.append(wl.run_window(pair, seconds))
        if trace:
            set_tracers(pair, tracers)
            probes.install()
            lo = time.perf_counter()
            try:
                windows.append(wl.run_window(pair, seconds))
            finally:
                hi = time.perf_counter()
                probes.remove()
                set_tracers(pair, None)
        wl.check_pair(pair, windows)
    finally:
        pair.stop()
    attempted = sum(w.attempted for w in windows)
    failed = sum(w.failed for w in windows)
    for w in windows[1:]:
        if not w.samples:
            raise CheckFailed(
                f"{wl.name}: no request completed in the window ({failed} failed ops)"
            )
    main = windows[1]
    print("# window " + json.dumps(_note(wl, main)), flush=True)
    if not trace:
        values = e2e_values(wl, main, setups)
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
        return {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}

    traced = windows[2]
    print("# traced window " + json.dumps(_note(wl, traced)), flush=True)
    spans, names = ledger_mod.collect_spans(tracers, lo, hi)
    values, rows = layer_values(
        wl, spans, names, hi - lo, setup_spans, traced, main, probes, host
    )
    print(ledger_mod.format_ledger(rows), flush=True)
    print(f"# purpose guard: {check_purpose(wl, spans)}", flush=True)
    path = trace_out or os.path.join(".perfbench", f"{wl.name}.trace.json")
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    write_chrome_trace(path, tracers)
    print(f"# chrome trace: {path}", flush=True)
    metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in values.items()}
    return {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}
