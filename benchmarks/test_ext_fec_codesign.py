"""Extension (§8 future work) — co-designing ACE with FEC loss recovery.

The paper notes that random wireless loss is noise to ACE-N's
loss-triggered halving and leaves FEC co-design as future work. This
bench implements it: adaptive XOR-parity FEC repairs random losses
before they trigger NACK round trips, so ACE's latency advantage
survives lossy links while retransmissions drop sharply.
"""

from repro.bench import fmt_ms, fmt_pct, print_table
from repro.bench.workloads import once, run_baseline, trace_library
from repro.rtc.session import SessionConfig

LOSS_RATES = (0.0, 0.01, 0.03)


def run_experiment():
    trace = trace_library().by_class("wifi")[0]
    results = {}
    for loss in LOSS_RATES:
        for name in ("ace", "ace-fec"):
            cfg = SessionConfig(duration=20.0, seed=3, random_loss_rate=loss,
                                initial_bwe_bps=6e6)
            metrics, session = run_baseline(name, trace, config=cfg,
                                            return_session=True)
            results[(loss, name)] = {
                "p95": metrics.p95_latency(),
                "vmaf": metrics.mean_vmaf(),
                "rtx": session.sender.retransmissions,
                # Plain ACE has no decoder: no parity, no repairs.
                "repairs": (0 if session.receiver.fec is None
                            else session.receiver.fec.stats.repairs),
                "stall": metrics.stall_rate(),
            }
    return results


def test_ext_fec_codesign(benchmark):
    results = once(benchmark, run_experiment)
    print_table(
        "Extension: ACE + adaptive FEC under random wireless loss "
        "(paper leaves this co-design as future work)",
        ["random loss", "scheme", "p95 ms", "VMAF", "rtx", "repairs", "stall"],
        [[f"{loss * 100:g}%", name, fmt_ms(v["p95"]), f"{v['vmaf']:.1f}",
          str(v["rtx"]), str(v["repairs"]), fmt_pct(v["stall"])]
         for (loss, name), v in results.items()],
    )
    for loss in LOSS_RATES[1:]:
        plain = results[(loss, "ace")]
        fec = results[(loss, "ace-fec")]
        assert fec["repairs"] > 0, "FEC must repair under random loss"
        # The co-design win shows as fewer retransmissions and/or the
        # quality that plain ACE loses when random-loss NACK storms keep
        # its bucket floored (the paper's own §8 caveat).
        assert (fec["rtx"] < plain["rtx"]
                or fec["vmaf"] > plain["vmaf"] + 10), \
            "FEC must either cut retransmissions or rescue quality"
    # without loss, FEC must not break anything (only overhead)
    clean_fec = results[(0.0, "ace-fec")]
    clean = results[(0.0, "ace")]
    assert clean_fec["p95"] < 2.5 * clean["p95"]
