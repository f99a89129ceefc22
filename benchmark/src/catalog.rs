//! Every metric the benchmark prints, by name and unit. This table and
//! `BENCHMARK.json` must list the same names; `selfcheck.sh` compares
//! them against what a run prints.

/// What a user of the runtimes would see. Defined on every workload.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Per-backend rows, printed as `<backend>.<name>`.
pub const PER_BACKEND: [(&str, &str); 3] = [
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
];

/// Single-layer metrics; the prefix is the crate the number belongs to.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("core.build_ms", "ms"),
    ("core.finalize_ms", "ms"),
    ("core.teardown_timeouts", "count"),
    ("core.create_ns", "ns"),
    ("core.join_ns", "ns"),
    ("core.join_wake_us", "us"),
    ("core.efficiency", "ratio"),
    ("fiber.switch_ns", "ns"),
    ("fiber.create_hit_ns", "ns"),
    ("fiber.create_miss_ns", "ns"),
    ("fiber.stack_hit_ratio", "ratio"),
    ("sched.ready_push_pop_ns", "ns"),
    ("sched.ready_steal_ns", "ns"),
    ("sched.park_unpark_us", "us"),
    ("sched.timer_arm_cancel_ns", "ns"),
    ("sched.timer_advance_ns", "ns"),
    ("sched.queue_wait_us", "us"),
    ("sched.steals_per_op", "1/op"),
    ("sched.steal_hit_ratio", "ratio"),
    ("sched.parks_per_op", "1/op"),
    ("sched.timers_armed_per_op", "1/op"),
    ("sync.spinlock_ns", "ns"),
    ("sync.event_set_wait_ns", "ns"),
    ("sync.channel_send_recv_ns", "ns"),
    ("sync.feb_write_read_ns", "ns"),
    ("sync.queue_contention_per_op", "1/op"),
    ("ultcore.task_spawn_poll_ns", "ns"),
    ("ultcore.ult_run_ns", "ns"),
    ("ultcore.yields_per_op", "1/op"),
    ("ultcore.async_polls_per_op", "1/op"),
    ("ultcore.async_wakes_per_op", "1/op"),
    ("net.parse_ns", "ns"),
    ("net.pre_handler_us", "us"),
    ("net.handler_us", "us"),
    ("net.post_handler_us", "us"),
    ("net.connect_us", "us"),
    ("net.io_events_per_op", "1/op"),
    ("net.io_wakes_per_op", "1/op"),
    ("net.io_timeouts", "count"),
    ("net.requests_shed", "count"),
    ("net.gen_late_p99_us", "us"),
    ("metrics.snapshot_us", "us"),
    ("metrics.trace_overhead_frac", "ratio"),
    ("metrics.busy_frac", "ratio"),
    ("metrics.dispatch_frac", "ratio"),
    ("metrics.idle_frac", "ratio"),
    ("metrics.parked_frac", "ratio"),
    ("metrics.worker_busy_skew", "ratio"),
    ("openmp.ops_per_s", "1/s"),
    ("kernel.serial_us_per_unit", "us"),
];
