// Command perfbench is datacell's end-to-end benchmark. It spawns the
// shipped datacelld, drives it over the DCL1 wire from one feeder
// connection and one subscriber connection, checks every window against an
// oracle computed from the generated inputs, and prints the end-to-end
// metrics. With -trace 1 it also replays the same inputs in process, times
// every call into the layers' public functions, and prints the per-layer
// metrics instead. See README.md for the phases and the metric catalogue.
//
// Usage (from the repository root, after building with run.sh):
//
//	perfbench -server datacelld -workload fanout-having -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"datacell"
)

// connections is how many sockets a run opens: one feeder, one subscriber.
const connections = 2

// coverageTolerance is the least share of the traced replay's wall time
// its layer spans must cover; the rest is loop and bookkeeping.
const coverageTolerance = 0.9

// closedShare is the closed-loop share of the measured seconds; the open
// loop takes the rest.
const closedShare = 0.4

// replayRounds is how many closed-loop rounds' worth of steps the traced
// run replays in process.
const replayRounds = 2

// lateLimit is the share of the open-loop period by which the feeder's p99
// send may trail the later of its schedule and the previous append's
// acknowledgement. Later, the harness no longer holds the rate, and its
// delay would be reported as the server's latency.
const lateLimit = 1.0

// cpuLimit is the share of its one core the harness may use in a timed
// phase. Above it, the feeder and the consumers queue behind each other,
// and their delay would be reported as the server's.
const cpuLimit = 0.9

// openSlices is how many equal slices of the open loop latency_p50_ms
// takes the median of.
const openSlices = 9

// generatorProcs is the harness's GOMAXPROCS, so the generator never takes
// more than one of the cores the server runs on.
const generatorProcs = 1

// config is one run's settings.
type config struct {
	workload    string
	seed        int64
	seconds     float64
	trace       bool
	serverBin   string
	serverProcs int
	workDir     string
	// small shrinks the workload (tests).
	small bool
	// spans is where a traced run writes its spans ("" = not written).
	spans string
	// mutate, when set, edits every decoded window before it is checked
	// (tests use it to prove the oracle is live).
	mutate func(qi, window int, t *datacell.Table)
	// beforeSend, when set, runs before each open-loop send is scheduled
	// (tests use it to make the feeder late).
	beforeSend func(period time.Duration)
	// maxCPU is the harness CPU share above which the run is invalid:
	// cpuLimit, except in tests under the race detector, which slows the
	// harness several-fold.
	maxCPU float64
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is a run's result plus its metadata and first failure.
type report struct {
	result   result
	meta     map[string]any
	firstErr error
}

func main() {
	cfg := &config{}
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds (closed plus open loop)")
	flag.IntVar(&traceFlag, "trace", 0, "1: print per-layer metrics from a traced in-process replay")
	flag.StringVar(&cfg.serverBin, "server", "", "datacelld binary to spawn")
	flag.StringVar(&cfg.workDir, "workdir", filepath.Join(".bench_build", "perfbench"), "directory for data and span files")
	flag.Parse()
	cfg.trace = traceFlag == 1
	cfg.maxCPU = cpuLimit
	if err := validate(cfg, traceFlag); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	cfg.workDir = filepath.Join(cfg.workDir, fmt.Sprintf("run-%d", os.Getpid()))
	if cfg.trace {
		cfg.spans = filepath.Join(filepath.Dir(cfg.workDir), "spans", fmt.Sprintf("%s-seed%d.tsv", cfg.workload, cfg.seed))
	}
	runtime.GOMAXPROCS(generatorProcs)
	rep, err := run(cfg)
	if rerr := os.RemoveAll(cfg.workDir); err == nil && rerr != nil {
		err = rerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	meta, _ := json.Marshal(map[string]any{"meta": rep.meta})
	fmt.Println(string(meta))
	line, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.result.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed; first: %v\n",
			rep.result.Failed, rep.result.Attempted, rep.firstErr)
		os.Exit(1)
	}
}

// validate rejects bad flags and hosts that would oversubscribe.
func validate(cfg *config, traceFlag int) error {
	if _, err := newWorkload(cfg.workload, false); err != nil {
		return err
	}
	if traceFlag != 0 && traceFlag != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", traceFlag)
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if cfg.serverBin == "" {
		return errors.New("-server is required (run.sh builds it)")
	}
	cfg.serverProcs = runtime.NumCPU()
	if connections > cfg.serverProcs || generatorProcs > cfg.serverProcs {
		return fmt.Errorf("host has %d cores: %d connections and %d generator threads would oversubscribe it",
			cfg.serverProcs, connections, generatorProcs)
	}
	return nil
}

// run measures one workload and assembles its report.
func run(cfg *config) (*report, error) {
	w, err := newWorkload(cfg.workload, cfg.small)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	in := genInputs(w, cfg.seed)
	or := buildOracle(w, in)
	wr, err := runWire(cfg, w, in, or)
	if err != nil {
		return nil, err
	}
	if err := wr.validity(cfg.maxCPU); err != nil {
		return nil, fmt.Errorf("invalid run: %w", err)
	}
	rep := &report{firstErr: wr.firstErr}
	rep.result.Attempted, rep.result.Failed = wr.attempted, wr.failed
	m := map[string]metric{}
	totals := msOf(wr.samples, func(s sample) time.Duration { return s.total })
	tailQ := tailQuantile(len(totals))
	if !cfg.trace {
		m["throughput_rows_s"] = metric{quantile(wr.closedRates, 0.5), "rows/s"}
		m["latency_p50_ms"] = metric{slicedMedian(wr.samples, wr.openSteps), "ms"}
		m["server_cpu_ms_per_krow"] = metric{ratio(ms(wr.serverCPU), float64(wr.openSteps*w.stepRows())/1000), "ms"}
		m["rss_peak_mb"] = metric{wr.rssMB, "MB"}
		m["setup_s"] = metric{quantile(wr.setups, 0.5), "s"}
	} else {
		// Replay the warm-up untimed and the first replayRounds closed-loop
		// rounds' steps timed: once without spans, for the overhead
		// figures, then traced.
		steps := wr.closedSteps * replayRounds / closedRounds
		off, err := replay(cfg, w, in, or, wr.warmSteps, steps, false)
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		on, err := replay(cfg, w, in, or, wr.warmSteps, steps, true)
		if err != nil {
			return nil, fmt.Errorf("traced replay: %w", err)
		}
		for _, r := range []*replayResult{off, on} {
			rep.result.Attempted += r.attempted
			rep.result.Failed += r.failed
			if rep.firstErr == nil {
				rep.firstErr = r.firstErr
			}
		}
		layerMetrics(m, wr, off, on)
		m["latency_p90_ms"] = metric{quantile(totals, 0.9), "ms"}
		m["latency_p99_ms"] = metric{quantile(totals, tailQ), "ms"}
		if cfg.spans != "" {
			if err := writeSpans(cfg.spans, on.spans); err != nil {
				return nil, err
			}
		}
	}
	failedFrac := ratio(float64(rep.result.Failed), float64(rep.result.Attempted))
	if cfg.trace {
		m["loadgen.ops_failed_frac"] = metric{failedFrac, "ratio"}
	}
	rep.result.Metrics = m
	rep.result.Correct = rep.result.Failed == 0
	rep.meta = map[string]any{
		"workload":             w.name,
		"seed":                 cfg.seed,
		"trace":                cfg.trace,
		"nproc":                runtime.NumCPU(),
		"connections":          connections,
		"generator_gomaxprocs": runtime.GOMAXPROCS(0),
		"server_gomaxprocs":    cfg.serverProcs,
		"go":                   runtime.Version(),
		"commit":               commit(),
		"statements":           len(w.queries),
		"step_rows":            w.stepRows(),
		"open_rate_rows_s":     w.openRate,
		"inflight_steps":       inflight,
		"setup_runs_s":         wr.setups,
		"warm_s":               wr.warmWall.Seconds(),
		"warm_steps":           wr.warmSteps,
		"closed_s":             wr.closedWall.Seconds(),
		"closed_steps":         wr.closedSteps,
		"closed_round_rows_s":  wr.closedRates,
		"open_s":               wr.openWall.Seconds(),
		"open_steps":           wr.openSteps,
		"latency_samples":      len(wr.samples),
		"latency_tail_q":       tailQ,
		"open_period_ms":       ms(wr.period),
		"loadgen_late_ms_p99":  wr.lateP99(),
		"loadgen_cpu_frac":     wr.loadgenFrac,
		"ops_failed_frac":      failedFrac,
	}
	return rep, nil
}

// layerMetrics fills the per-layer figures from the wire run's scrapes and
// samples and from the replays.
func layerMetrics(m map[string]metric, wr *wireResult, off, on *replayResult) {
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	splitMS := func(name string, f func(s sample) time.Duration) {
		xs := msOf(wr.samples, f)
		set(name+"_p50", quantile(xs, 0.5), "ms")
		set(name+"_p99", quantile(xs, tailQuantile(len(xs))), "ms")
	}
	set("loadgen.late_ms_p99", wr.lateP99(), "ms")
	set("loadgen.cpu_frac", wr.cpuFrac(), "ratio")
	set("loadgen.latency_samples", float64(len(wr.samples)), "count")

	rows, steps, windows := float64(on.rows), float64(on.steps), float64(on.windows)
	set("serve.ingest_encode_ns_per_row", ratio(ns(on.dur[spIngestEncode]), rows), "ns")
	set("serve.ingest_decode_ns_per_row", ratio(ns(on.dur[spIngestDecode]), rows), "ns")
	set("serve.result_encode_us_per_window", ratio(ns(on.dur[spResultEncode])/1e3, windows), "us")
	set("serve.result_decode_us_per_window", ratio(ns(on.dur[spResultDecode])/1e3, windows), "us")
	splitMS("serve.wire_ms", func(s sample) time.Duration { return s.wire })
	c0, c1 := wr.afterWarm, wr.afterClosed
	delta := func(name string, labels ...string) float64 { return c1.sum(name, labels...) - c0.sum(name, labels...) }
	pairs := delta("datacell_query_windows_total")
	set("serve.frames_per_window", ratio(delta("datacell_serve_result_frames_total"), pairs), "count")
	set("serve.encodes_per_window", ratio(delta("datacell_serve_result_encodes_total"), pairs), "count")
	set("serve.bytes_out_per_window", ratio(delta("datacell_serve_bytes_written_total"), pairs), "bytes")

	set("engine.append_ns_per_row", ratio(ns(on.dur[spAppend]), rows), "ns")
	set("engine.append_alloc_bytes_per_row", ratio(float64(on.allocBytes[spAppend]), rows), "bytes")
	set("engine.pump_ms_per_slide", ratio(ms(on.dur[spPump]), steps), "ms")
	set("engine.pump_allocs_per_slide", ratio(float64(on.allocObjects[spPump]), steps), "count")
	set("engine.pump_alloc_bytes_per_slide", ratio(float64(on.allocBytes[spPump]), steps), "bytes")
	splitMS("engine.step_ms", func(s sample) time.Duration { return s.step })
	splitMS("engine.wait_ms", func(s sample) time.Duration { return s.total - s.step - s.wire })
	e0, e1 := wr.afterSetup, wr.end
	set("engine.dropped", e1.sum("datacell_query_results_total", `outcome="dropped"`)-e0.sum("datacell_query_results_total", `outcome="dropped"`)+
		e1.sum("datacell_serve_result_frames_dropped_total")-e0.sum("datacell_serve_result_frames_dropped_total"), "count")

	for _, s := range []struct {
		metric string
		span   int
	}{
		{"core.fragment_ms_per_slide", spFragment}, {"core.shared_ms_per_slide", spShared},
		{"core.scatter_ms_per_slide", spScatter}, {"core.partition_ms_per_slide", spPartition},
		{"core.stitch_ms_per_slide", spStitch}, {"core.merge_ms_per_slide", spMerge},
		{"core.join_ms_per_slide", spJoin},
	} {
		set(s.metric, ratio(ms(on.dur[s.span]), steps), "ms")
	}
	adopted := delta("datacell_query_slides_total", `kind="adopted"`)
	led := delta("datacell_query_slides_total", `kind="led"`)
	set("core.fragment_adopt_ratio", ratio(adopted, adopted+led), "ratio")
	set("core.tail_adopt_ratio", ratio(float64(on.tailsAdopted), float64(on.tailsAdopted+on.tailsLed)), "ratio")
	set("core.batched_slide_frac", ratio(float64(on.batched), windows), "ratio")
	set("core.builds_reused_per_slide", ratio(delta("datacell_query_join_builds_reused_total"), float64(wr.closedSteps)), "count")

	set("storage.segments", e1.sum("datacell_stream_segments"), "count")
	set("storage.fetches", e1.sum("datacell_stream_segment_fetches_total")-wr.afterWarm.sum("datacell_stream_segment_fetches_total"), "count")
	set("storage.evictions", e1.sum("datacell_stream_segment_evictions_total")-wr.afterWarm.sum("datacell_stream_segment_evictions_total"), "count")
	set("storage.resident_mb", e1.sum("datacell_stream_resident_bytes")/(1<<20), "MB")

	set("runtime.gc_cpu_frac", ratio(on.gcCPU, on.cpu), "ratio")
	set("runtime.alloc_bytes_per_row", ratio(float64(on.allocTotal), rows), "bytes")
	set("runtime.heap_peak_mb", float64(on.heapPeak)/(1<<20), "MB")

	// Self time per span name; a pump's self time excludes its core
	// stages. Shares of traced wall add up to the coverage.
	wall := ns(on.wall)
	var covered float64
	for name := 0; name < nSpans; name++ {
		self := ns(on.dur[name])
		if name == spPump {
			for c := spFragment; c <= spMerge; c++ {
				self -= ns(on.dur[c])
			}
		}
		covered += self
		set("share."+spanNames[name], ratio(self, wall), "ratio")
	}
	set("trace.coverage_frac", ratio(covered, wall), "ratio")
	set("trace.overhead_frac", ratio(ns(on.wall), ns(off.wall))-1, "ratio")
	perStep := ratio(ns(wr.closedWall), float64(wr.closedSteps))
	set("trace.path_overhead_frac", 1-ratio(ns(off.wall)/float64(off.steps), perStep), "ratio")
}

// lateP99 is how far, in ms, the feeder's p99 open-loop send trailed the
// later of its schedule and the previous append's acknowledgement.
func (wr *wireResult) lateP99() float64 {
	late := make([]float64, len(wr.late))
	for i, d := range wr.late {
		late[i] = ms(d)
	}
	return quantile(late, tailQuantile(len(late)))
}

// cpuFrac is the harness's larger CPU share of the two timed phases.
func (wr *wireResult) cpuFrac() float64 { return max(wr.loadgenFrac[0], wr.loadgenFrac[1]) }

// validity rejects a run whose harness, not the server, set the pace: a
// late feeder, or a harness that used more than maxCPU of its core.
func (wr *wireResult) validity(maxCPU float64) error {
	if late, limit := wr.lateP99(), lateLimit*ms(wr.period); late > limit {
		return fmt.Errorf("feeder p99 send was %.3f ms late, above %.3f ms (%.2f of the %.3f ms period)",
			late, limit, lateLimit, ms(wr.period))
	}
	if f := wr.cpuFrac(); f > maxCPU {
		return fmt.Errorf("harness used %.2f of its core in a timed phase, above %.2f", f, maxCPU)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func ns(d time.Duration) float64 { return float64(d) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tailQuantile is the highest quantile up to 0.99 that leaves at least ten
// samples beyond it.
func tailQuantile(n int) float64 {
	if n <= 10 {
		return 0.5
	}
	return math.Min(0.99, 1-10/float64(n))
}

// slicedMedian splits the open loop's n sends into openSlices equal
// slices and returns the median of the slices' median latencies in ms. A
// host stall that covers fewer than half the slices barely moves it,
// where it would shift a median pooled over the whole loop.
func slicedMedian(samples []sample, n int) float64 {
	per := make([][]float64, openSlices)
	for _, s := range samples {
		i := s.slot * openSlices / n
		per[i] = append(per[i], ms(s.total))
	}
	var meds []float64
	for _, xs := range per {
		if len(xs) > 0 {
			meds = append(meds, quantile(xs, 0.5))
		}
	}
	return quantile(meds, 0.5)
}

// msOf maps samples through f to milliseconds.
func msOf(samples []sample, f func(sample) time.Duration) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = ms(f(s))
	}
	return out
}

// quantile is the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// commit names the checked-out revision when the checkout is a git
// repository, and "unknown" otherwise.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}
