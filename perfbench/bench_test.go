package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"datacell"
	"datacell/internal/vector"
)

// serverBin is the datacelld binary TestMain builds for the tests.
var serverBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	serverBin = filepath.Join(dir, "datacelld")
	build := exec.Command("go", "build", "-o", serverBin, "datacell/cmd/datacelld")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "build datacelld:", err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// smallConfig is a one-second run of a shrunken workload.
func smallConfig(t *testing.T, workload string, trace bool) *config {
	t.Helper()
	if runtime.NumCPU() < connections {
		t.Skipf("needs %d cores", connections)
	}
	maxCPU := cpuLimit
	if raceEnabled {
		maxCPU = math.Inf(1)
	}
	return &config{
		workload: workload, seed: 7, seconds: 1, trace: trace,
		serverBin: serverBin, serverProcs: runtime.NumCPU(),
		workDir: t.TempDir(), small: true, maxCPU: maxCPU,
	}
}

// declared reads the metric names BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func names(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// TestSmokeEveryWorkload runs every workload small, untraced and traced,
// and checks that each reports exactly the declared metrics with no
// failed operation.
func TestSmokeEveryWorkload(t *testing.T) {
	endToEnd, perLayer := declared(t)
	slices.Sort(endToEnd)
	slices.Sort(perLayer)
	for _, wl := range workloadNames {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", wl, trace), func(t *testing.T) {
				rep, err := run(smallConfig(t, wl, trace))
				if err != nil {
					t.Fatal(err)
				}
				r := rep.result
				if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
					t.Fatalf("correct=%v failed=%d attempted=%d: %v", r.Correct, r.Failed, r.Attempted, rep.firstErr)
				}
				want := endToEnd
				if trace {
					want = perLayer
					if f := r.Metrics["loadgen.ops_failed_frac"].Value; f != 0 {
						t.Fatalf("ops_failed_frac = %v", f)
					}
					if d := r.Metrics["engine.dropped"].Value; d != 0 {
						t.Fatalf("engine.dropped = %v", d)
					}
				}
				if got := names(r.Metrics); !slices.Equal(got, want) {
					t.Fatalf("metrics %v\nwant %v", got, want)
				}
				for name, m := range r.Metrics {
					if !trace && m.Value <= 0 {
						t.Errorf("%s = %v, want > 0", name, m.Value)
					}
				}
			})
		}
	}
}

// TestCorruptedResultCounted proves the oracle is live end to end: one
// altered window of one subscription is counted as exactly one failed
// operation and makes the run incorrect.
func TestCorruptedResultCounted(t *testing.T) {
	cfg := smallConfig(t, "join-skew", false)
	cfg.mutate = func(qi, window int, tbl *datacell.Table) {
		if qi == 1 && window == 3 {
			tbl.Cols[0].Int64s()[0]++
		}
	}
	rep, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.result.Correct || rep.result.Failed != 1 {
		t.Fatalf("correct=%v failed=%d, want one failure", rep.result.Correct, rep.result.Failed)
	}
	if rep.firstErr == nil || !strings.Contains(rep.firstErr.Error(), "window 3") {
		t.Fatalf("first error %v does not name window 3", rep.firstErr)
	}
}

// TestLateFeederRejected proves the feeder's lateness check is live: a
// feeder held back two periods before every open-loop send makes the run
// invalid instead of reporting its delay as the server's latency.
func TestLateFeederRejected(t *testing.T) {
	cfg := smallConfig(t, "join-skew", false)
	cfg.beforeSend = func(period time.Duration) { time.Sleep(2 * period) }
	rep, err := run(cfg)
	if err == nil || !strings.Contains(err.Error(), "late") {
		t.Fatalf("run with a late feeder: report %v, error %v; want a lateness error", rep, err)
	}
}

// TestValidityLimits checks each limit of the harness validity check.
func TestValidityLimits(t *testing.T) {
	ok := wireResult{period: 10 * time.Millisecond, late: []time.Duration{time.Millisecond}, loadgenFrac: [2]float64{0.5, 0.2}}
	if err := ok.validity(cpuLimit); err != nil {
		t.Fatalf("valid run rejected: %v", err)
	}
	late := ok
	late.late = []time.Duration{11 * time.Millisecond}
	busy := ok
	busy.loadgenFrac[1] = 0.95
	for name, wr := range map[string]wireResult{"late": late, "busy": busy} {
		if err := wr.validity(cpuLimit); err == nil {
			t.Errorf("%s run accepted", name)
		}
	}
}

// TestSlicedMedianIgnoresShortStall checks that a stall over four of the
// nine slices of the open loop leaves latency_p50_ms at the calm median,
// where the median pooled over every sample moves.
func TestSlicedMedianIgnoresShortStall(t *testing.T) {
	const n = 900
	var ss []sample
	for k := 0; k < n; k++ {
		d := time.Duration(10+k%10) * 100 * time.Microsecond // calm: 1.0-1.9 ms
		if k < 4*n/openSlices {
			d = 20 * time.Millisecond
		}
		ss = append(ss, sample{total: d, slot: k})
	}
	pooled := quantile(msOf(ss, func(s sample) time.Duration { return s.total }), 0.5)
	if got := slicedMedian(ss, n); got > 1.5 || pooled < 1.7 {
		t.Fatalf("sliced median %.2f ms, pooled %.2f ms; want sliced at the calm 1.4-1.5 ms and pooled moved", got, pooled)
	}
}

// TestCheckerRejects covers each way a grouped window can be wrong.
func TestCheckerRejects(t *testing.T) {
	w := fanoutHaving(true)
	or := buildOracle(w, genInputs(w, 3))
	qi := 0
	q := &w.queries[qi]
	e := or.byQuery[qi][0]
	var keys, sums []int64
	for k, s := range e.sums {
		if s > q.arg {
			keys = append(keys, int64(k))
			sums = append(sums, s)
		}
	}
	if len(keys) < 2 {
		t.Fatalf("window 1 keeps %d groups; the test needs two", len(keys))
	}
	table := func(keys, sums []int64) *datacell.Table {
		return &datacell.Table{Names: []string{"x1", "sum(x2)"},
			Cols: []*vector.Vector{vector.FromInt64(slices.Clone(keys)), vector.FromInt64(slices.Clone(sums))}}
	}
	ck := newChecker(or, qi)
	if err := ck.check(1, table(keys, sums)); err != nil {
		t.Fatalf("exact window rejected: %v", err)
	}
	bad := map[string]*datacell.Table{
		"wrong sum":     table(keys, append([]int64{sums[0] + 1}, sums[1:]...)),
		"missing group": table(keys[1:], sums[1:]),
		"duplicate":     table(append([]int64{keys[0]}, keys[:len(keys)-1]...), append([]int64{sums[0]}, sums[:len(sums)-1]...)),
		"float column":  {Names: []string{"x1", "s"}, Cols: []*vector.Vector{vector.FromInt64(keys), vector.FromFloat64(make([]float64, len(keys)))}},
	}
	for name, tbl := range bad {
		if err := ck.check(1, tbl); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestTraceCoverage checks that the traced replay's layer spans cover the
// traced wall time within the stated tolerance. It runs the full-size
// workloads, briefly: the shrunken ones do so little work per step that
// the tracer's own reads are a visible share of it.
func TestTraceCoverage(t *testing.T) {
	for _, wl := range workloadNames {
		t.Run(wl, func(t *testing.T) {
			cfg := smallConfig(t, wl, true)
			cfg.small = false
			rep, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c := rep.result.Metrics["trace.coverage_frac"].Value
			t.Logf("trace.coverage_frac = %.4f over %d steps", c, rep.meta["closed_steps"])
			if c < coverageTolerance || c > 1 {
				t.Fatalf("trace.coverage_frac = %.4f, want within [%.2f, 1]", c, coverageTolerance)
			}
		})
	}
}
