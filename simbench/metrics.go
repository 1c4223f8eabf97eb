package main

// metricSpec names one metric the command prints, with its unit.
type metricSpec struct {
	Name string
	Unit string
}

// endToEndMetrics are printed by every timed run (-trace 0).
var endToEndMetrics = []metricSpec{
	{"setup_s", "s"},
	{"age_s", "s"},
	{"replay_req_per_s", "1/s"},
	{"jobs_per_s", "1/s"},
	{"job_p50_ms", "ms"},
	{"heap_mb", "MB"},
}

// perLayerMetrics are printed by every traced run (-trace 1). A metric of a
// layer the workload does not reach reads 0. Names ending in cpu_s are CPU
// profile self time of the traced round, by package or by function.
var perLayerMetrics = []metricSpec{
	{"workload.generate_s", "s"},
	{"workload.cpu_s", "s"},
	{"sim.build_s", "s"},
	{"sim.age_s.FTL", "s"},
	{"sim.age_s.MRSM", "s"},
	{"sim.age_s.Across-FTL", "s"},
	{"sim.age_ns_per_write", "ns"},
	{"sim.warmup_writes", "count"},
	{"sim.replay_s.FTL", "s"},
	{"sim.replay_s.MRSM", "s"},
	{"sim.replay_s.Across-FTL", "s"},
	{"sim.replay_ns_per_req", "ns"},
	{"sim.cpu_s", "s"},
	{"stats.cpu_s", "s"},
	{"flash.cpu_s", "s"},
	{"flash.CountStates.cpu_s", "s"},
	{"flash.Invalidate.cpu_s", "s"},
	{"flash.programs", "count"},
	{"flash.reads", "count"},
	{"flash.erases", "count"},
	{"mapping.cpu_s", "s"},
	{"mapping.PMT.AIdxOf.cpu_s", "s"},
	{"cache.cpu_s", "s"},
	{"cache.cmt_hit_ratio", "ratio"},
	{"clock.cpu_s", "s"},
	{"ftl.cpu_s", "s"},
	{"ftl.gc_invocations", "count"},
	{"ftl.waf", "ratio"},
	{"acrossftl.cpu_s", "s"},
	{"acrossftl.areas_written", "count"},
	{"acrossftl.merges", "count"},
	{"acrossftl.rollbacks", "count"},
	{"mrsm.cpu_s", "s"},
	{"snapshot.cpu_s", "s"},
	{"snapshot.mb", "MB"},
	{"store.mb", "MB"},
	{"store.entries", "count"},
	{"store.cpu_s", "s"},
	{"service.cpu_s", "s"},
	{"service.queued_s", "s"},
	{"service.generate_s", "s"},
	{"service.age_s", "s"},
	{"service.restore_s", "s"},
	{"service.replay_s", "s"},
	{"service.store_s", "s"},
	{"service.client_s", "s"},
	{"service.snapshot_ages", "count"},
	{"service.snapshot_restores", "count"},
	{"service.jobs_cached", "count"},
	{"obs.cpu_s", "s"},
	{"other.cpu_s", "s"},
	{"runtime.cpu_s", "s"},
	{"runtime.gc_cpu_s", "s"},
	{"runtime.alloc_mb", "MB"},
	{"stdlib.cpu_s", "s"},
	{"bench.cpu_s", "s"},
	{"bench.trace_overhead_s", "s"},
	{"cpu.sampled_s", "s"},
	{"cpu.split_coverage", "ratio"},
}

// cpuBuckets maps the repository's packages to the per-layer CPU metric
// their samples are charged to. Packages of the module not listed here
// fall in other.cpu_s; the Go runtime, the rest of the standard library
// and the benchmark itself have buckets of their own.
var cpuBuckets = map[string]string{
	"across/internal/workload":  "workload.cpu_s",
	"across/internal/sim":       "sim.cpu_s",
	"across/internal/flash":     "flash.cpu_s",
	"across/internal/mapping":   "mapping.cpu_s",
	"across/internal/cache":     "cache.cpu_s",
	"across/internal/clock":     "clock.cpu_s",
	"across/internal/ftl":       "ftl.cpu_s",
	"across/internal/acrossftl": "acrossftl.cpu_s",
	"across/internal/mrsm":      "mrsm.cpu_s",
	"across/internal/snapshot":  "snapshot.cpu_s",
	"across/internal/service":   "service.cpu_s",
	"across/internal/jobs":      "service.cpu_s",
	"across/internal/store":     "store.cpu_s",
	"across/internal/stats":     "stats.cpu_s",
	"across/internal/obs":       "obs.cpu_s",
}

// cpuFunctions are single functions whose self time is reported on its own
// (and also inside its package's bucket): the hot spots of §4.1 aging.
var cpuFunctions = map[string]string{
	"across/internal/flash.(*Array).CountStates": "flash.CountStates.cpu_s",
	"across/internal/flash.(*Array).Invalidate":  "flash.Invalidate.cpu_s",
	"across/internal/mapping.(*PMT).AIdxOf":      "mapping.PMT.AIdxOf.cpu_s",
}
