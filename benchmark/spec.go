package main

import "time"

// The four workloads. Names are fixed: BENCHMARK.json, the README and every
// later performance claim refer to them.
const (
	wlQueryZipf       = "query_zipf"
	wlPushFanout      = "push_fanout"
	wlStandingDurable = "standing_durable"
	wlStoreMixed      = "store_mixed"
)

var workloadNames = []string{wlQueryZipf, wlPushFanout, wlStandingDurable, wlStoreMixed}

// Sizes. They are constants, not flags: a number measured with other sizes
// is a number about another benchmark. The smoke test shortens the run with
// -seconds only.
const (
	// query_zipf
	qzKeys          = 8192
	qzTickHz        = 256 // feed ticks per second
	qzPerTick       = 32  // updates per tick: 8192 updates/s, each key once a second
	qzCache         = 1024
	qzKeysPerQuery  = 8
	qzZipfS         = 1.1
	qzDeltaMax      = 16.0
	qzBurst         = 4                    // queries due together on one connection
	qzBurstEvery    = 2 * time.Millisecond // 2000 queries/s per connection
	qzInitialWidth  = 4.0
	qzWarmQueries   = 2000 // per connection, closed loop, before the window opens
	qzSatQueryPool  = 1 << 15
	qzPingEvery     = 5 * time.Millisecond
	qzWarmUpdates   = qzKeys
	qzPacedPerConn  = int(time.Second / qzBurstEvery * qzBurst) // queries/s/connection
	qzUpdatesPerSec = qzTickHz * qzPerTick

	// push_fanout
	pfKeys         = 2048
	pfCache        = 4096
	pfBurst        = 128
	pfBurstEvery   = 2500 * time.Microsecond // 51 200 updates/s
	pfWidth        = 2.0                     // frozen: alpha = 0
	pfWarmUpdates  = 2 * pfKeys
	pfWarmChunk    = 128         // warm-up pacing: this many updates per millisecond
	pfSatBlock     = 32 * pfKeys // forward half of the saturated cycle
	pfUpdatesPerS  = int(time.Second/pfBurstEvery) * pfBurst
	pfQuiesceAfter = 200 * time.Millisecond // no arrival for this long means drained

	// standing_durable
	sdKeys         = 1024
	sdTickHz       = 256
	sdPerTick      = 32 // 8192 updates/s, each key eight times a second
	sdSumQueries   = 8
	sdSumKeys      = 64
	sdSumDelta     = 256.0
	sdMaxQueries   = 8
	sdMaxKeys      = 16
	sdMaxDelta     = 4.0
	sdReadBurst    = 4
	sdReadEvery    = 4 * time.Millisecond // bursts of 4: 1000 ReadExact/s per connection
	sdCache        = 2048
	sdInitialWidth = 4.0
	sdFsyncWindow  = 2 * time.Millisecond
	sdWarmUpdates  = 4 * sdKeys
	sdWarmReads    = 200
	sdReadPool     = 1 << 15
	sdUpdatesPerS  = sdTickHz * sdPerTick

	// store_mixed
	smKeys         = 32768
	smCache        = 8192
	smZipfS        = 1.1
	smSchedule     = 1 << 20 // pre-drawn ops per goroutine, cycled
	smWarmOps      = 1 << 18
	smQueries      = 4096
	smKeysPerQuery = 8
	smDeltaMax     = 16.0
	smGetPct       = 88
	smSetPct       = 10 // the remaining 2 % are Do
	smSampleEvery  = 64 // traced run: one Get/Set in this many is timed

	// satCallers is how many closed-loop callers share each connection in a
	// saturated phase. With one, a connection's throughput is the inverse
	// of one round trip — a chain of thread wake-ups across two processes,
	// which on a virtual machine is slow and varies from run to run; with
	// several the CPUs stay busy and the phase measures capacity.
	satCallers = 8

	// Algorithm parameters of the adaptive workloads (the paper's defaults).
	paramCvr   = 1.0
	paramCqr   = 2.0
	paramAlpha = 1.0

	// serverSeed seeds the controllers' probabilistic width adjustments.
	// It is configuration, not workload: the host never sees -seed.
	serverSeed = 1

	// validityGrace is how far behind its schedule a held interval may be:
	// an interval held at time t must contain a value its key (or its
	// aggregate) was scheduled to take in [t - validityGrace, t].
	validityGrace = time.Second

	// maxLagP50 is the open-loop lateness above which a run says nothing
	// about the system: it is reported invalid, never slow. It is a limit
	// on the median because a generator that cannot keep up is late all the
	// time, while a shared sandbox stalls it now and then; the p99 is
	// reported as gen.*_lag_p99_us.
	maxLagP50 = time.Millisecond

	// setupRepeats is how many times a run sets the system up; setup_s is
	// the median, plus the lead-in.
	setupRepeats = 3

	// leadIn is how long a network workload runs its paced load — feed,
	// queries or reads — before the measured window opens, so that the
	// window starts on a system already in the regime it measures. It is
	// part of setup_s.
	leadIn = time.Second
)

type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them (the benchmark contract asks for that), so each
// is defined per workload; the README has the table.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"refresh_cost_per_kop", "cost/kop", "lower"},
	{"rss_mb", "MB", "lower"},
}

// perLayer are the metrics of single layers, all from the traced run. A
// layer a workload bypasses reports 0, which is itself the claim that the
// workload bypasses it.
var perLayer = []metricDef{
	{"timed.latency_p50_us", "us", "lower"},
	{"timed.latency_p99_us", "us", "lower"},
	{"timed.ops_per_s", "1/s", "higher"},
	{"timed.cpu_us_per_op", "us", "lower"},
	{"client.query_self_us", "us", "lower"},
	{"client.cache_hit_ratio", "ratio", "higher"},
	{"client.evictions_per_s", "1/s", "lower"},
	{"client.frames_sent_per_query", "ratio", "lower"},
	{"client.refreshes_per_frame", "ratio", "higher"},
	{"server.ping_rtt_p50_us", "us", "lower"},
	{"server.ping_rtt_p99_us", "us", "lower"},
	{"server.refresh_cost_us", "us", "lower"},
	{"server.cpu_sys_share", "ratio", "lower"},
	{"server.cpu_util", "cores", "lower"},
	{"server.set_p50_us", "us", "lower"},
	{"server.set_p99_us", "us", "lower"},
	{"server.pushes_per_set", "ratio", "lower"},
	{"server.push_overflows_per_s", "1/s", "lower"},
	{"server.push_merges_per_s", "1/s", "lower"},
	{"server.flush_batch_mean", "ratio", "higher"},
	{"netproto.encode_ns_per_msg", "ns", "lower"},
	{"netproto.decode_ns_per_msg", "ns", "lower"},
	{"netproto.bytes_per_query", "B", "lower"},
	{"netproto.bytes_per_push", "B", "lower"},
	{"netproto.allocs_per_msg", "count", "lower"},
	{"source.set_ns", "ns", "lower"},
	{"source.read_ns", "ns", "lower"},
	{"source.refreshes_per_set", "ratio", "lower"},
	{"core.on_refresh_ns", "ns", "lower"},
	{"core.mean_width", "width", "lower"},
	{"cache.get_ns", "ns", "lower"},
	{"cache.put_ns", "ns", "lower"},
	{"cache.replay_hit_ratio", "ratio", "higher"},
	{"query.execute_us", "us", "lower"},
	{"query.fetches_per_query", "ratio", "lower"},
	{"query.rounds_per_max", "ratio", "lower"},
	{"cq.observe_ns", "ns", "lower"},
	{"cq.emits_per_observe", "ratio", "lower"},
	{"cq.steers_per_observe", "ratio", "lower"},
	{"cq.updates_per_set", "ratio", "lower"},
	{"cq.staleness_p50_us", "us", "lower"},
	{"cq.staleness_p99_us", "us", "lower"},
	{"wal.stage_commit_ns", "ns", "lower"},
	{"wal.bytes_per_record", "B", "lower"},
	{"wal.bytes_per_set", "B", "lower"},
	{"wal.recovery_s", "s", "lower"},
	{"wal.records_recovered_per_s", "1/s", "higher"},
	{"watch.notify_ns", "ns", "lower"},
	{"watch.coalesced_per_s", "1/s", "lower"},
	{"store.get_p50_ns", "ns", "lower"},
	{"store.set_p50_ns", "ns", "lower"},
	{"store.do_p99_us", "us", "lower"},
	{"store.allocs_per_op", "count", "lower"},
	{"gen.feed_lag_p99_us", "us", "lower"},
	{"gen.query_lag_p99_us", "us", "lower"},
	{"budget.explained_share", "ratio", "higher"},
	{"trace.overhead_ratio", "ratio", "higher"},
}

// update is one scheduled source update. Due is nanoseconds after the
// window opens; the warm-up and saturated blocks carry no due time.
type update struct {
	Key   int32
	Value float64
	Due   int64
}

// hostConfig is everything the host child is told: how to configure the
// server, where its inputs are and where to leave its report. It carries
// no seed.
type hostConfig struct {
	// Server configuration.
	ConnMode      string  `json:"conn_mode"`
	Alpha         float64 `json:"alpha"`
	InitialWidth  float64 `json:"initial_width"`
	FlushInterval int64   `json:"flush_interval_ns"`
	WALDir        string  `json:"wal_dir,omitempty"`
	FsyncWindow   int64   `json:"fsync_window_ns,omitempty"`
	// Inputs: Keys initial values, then the warm-up block (applied back to
	// back on WARM), the open-loop feed (applied at T0+Due on START), and
	// the saturated cycle (applied back to back for SatNS after the feed).
	InputFile string `json:"input_file"`
	// WarmChunk > 0 applies the warm-up block that many updates at a time,
	// WarmGapNS apart, so a block that every subscriber receives in full
	// does not congest their queues before the window opens.
	WarmChunk int   `json:"warm_chunk,omitempty"`
	WarmGapNS int64 `json:"warm_gap_ns,omitempty"`
	PacedNS   int64 `json:"paced_ns"` // CPU and counters are read at T0 and T0+PacedNS
	FeedNS    int64 `json:"feed_ns"`  // the feed's last due time is before this
	SatNS     int64 `json:"sat_ns"`
	// Traced asks the host for its own boundary spans (Server.Set timings)
	// in the odd slices of the saturated phase.
	Traced     bool   `json:"traced"`
	ReportFile string `json:"report_file"`
}

// hostReport is what the host measured about itself.
type hostReport struct {
	ConnMode    string `json:"conn_mode"` // the core actually in use
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Recovered   int    `json:"recovered_keys"`
	WarmApplied int    `json:"warm_applied"`
	WarmOverfl  int    `json:"warm_push_overflows"` // diverted to a merge buffer before T0
	// Paced window [T0, T0+PacedNS].
	PacedApplied int     `json:"paced_applied"`
	PacedPushes  int     `json:"paced_pushes"`
	PacedCPUUser float64 `json:"paced_cpu_user_s"`
	PacedCPUSys  float64 `json:"paced_cpu_sys_s"`
	PacedSpin    float64 `json:"paced_spin_s"`
	PacedOverfl  int     `json:"paced_push_overflows"`
	PacedMerges  int     `json:"paced_push_merges"`
	// Whole feed.
	FeedApplied int     `json:"feed_applied"`
	FeedLagP50  float64 `json:"feed_lag_p50_us"` // generator: how late an idle feeder woke, paced window
	FeedLagP99  float64 `json:"feed_lag_p99_us"`
	FeedLateP99 float64 `json:"feed_late_p99_us"` // system: how long after its due time an update was applied, paced window
	FeedLateMax float64 `json:"feed_late_max_us"` // the same, whole feed
	// Saturated phase.
	SatStart    int64     `json:"sat_start_ns"`
	SatApplied  int64     `json:"sat_applied"`
	SatPushes   int64     `json:"sat_pushes"`
	SatSlices   []int64   `json:"sat_slice_sets"`
	SatOverfl   int       `json:"sat_push_overflows"`
	SatMerges   int       `json:"sat_push_merges"`
	SetSpansUS  []float64 `json:"set_spans_us,omitempty"` // traced: sampled Server.Set durations
	SetSpanAt   []int64   `json:"set_span_at,omitempty"`  // their start times
	RefreshCost float64   `json:"refresh_cost_us"`
	Queries     int       `json:"standing_queries"`
	PeakRSSMB   float64   `json:"peak_rss_mb"`
	// Final is every key's value as the server reports it after the last
	// update (and, on a durable host, after two fsync windows).
	Final []float64 `json:"final_values"`
}
