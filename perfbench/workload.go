package main

import (
	"fmt"
	"math"
	"math/rand/v2"

	"datacell/internal/vector"
)

// queryKind selects the oracle that checks a statement's windows.
type queryKind int

const (
	// kindHaving: SELECT x1, sum(x2) FROM s [RANGE n SLIDE m] GROUP BY x1
	// HAVING sum(x2) > arg.
	kindHaving queryKind = iota
	// kindGroup: SELECT x1, sum(x2) FROM s [RANGE n SLIDE m] WHERE x1 < arg
	// GROUP BY x1.
	kindGroup
	// kindJoin: SELECT count(*), sum(s2.x1) FROM s1 [..], s2 [..]
	// WHERE s1.x2 = s2.x2 AND s1.x1 < arg.
	kindJoin
	// kindTime: SELECT count(*) FROM s [RANGE 100 MILLISECONDS], checked by
	// row conservation because its windows follow server arrival stamps.
	kindTime
)

// query is one standing statement of a workload.
type query struct {
	sql  string
	kind queryKind
	// span is the window length in feeder steps (count windows only):
	// window w covers steps w-1 .. w+span-2 and completes at step w+span-2.
	span int
	arg  int64
}

// counted reports whether the query's windows follow the feeder's steps.
func (q *query) counted() bool { return q.kind != kindTime }

// workload is one set of streams, statements and input shapes. Every
// stream has the schema (x1 BIGINT, x2 BIGINT); one feeder step appends
// slide rows to every stream, in order.
type workload struct {
	name    string
	streams []string
	slide   int
	// keys and vals are the x1 and x2 domains.
	keys, vals int
	queries    []query
	// durable runs the server with -data on a fresh directory and
	// -ram-budget set to ramBudget.
	durable   bool
	ramBudget int64
	// openRate is the fixed open-loop input rate in rows/s summed over
	// all streams: about a third of the closed-loop throughput, so a host
	// that slows down for a while raises latency instead of saturating.
	openRate float64
	// closedRate sizes the closed loop's fixed work: the rows/s the loop
	// sustained on a 2-core host when the benchmark was defined.
	closedRate float64
	// pool is how many distinct steps are generated; step i replays pool
	// entry i mod pool, so inputs and expected results are periodic.
	pool int
}

// stepRows is the number of rows one feeder step sends over all streams.
func (w *workload) stepRows() int { return w.slide * len(w.streams) }

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"fanout-having", "join-skew", "durable-ingest"}

// newWorkload builds a named workload. small shrinks it for tests while
// keeping every statement shape.
func newWorkload(name string, small bool) (*workload, error) {
	switch name {
	case "fanout-having":
		return fanoutHaving(small), nil
	case "join-skew":
		return joinSkew(small), nil
	case "durable-ingest":
		return durableIngest(small), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// fanoutHaving: 256 grouped statements in two window-length cliques over
// one stream. Equal slides share one fragment; equal lengths share one
// merge tail; the HAVING constants differ, so every statement runs its own
// residual filter and gets its own result frame. The constants sit in the
// upper tail of the per-key window sums so each result keeps a small share
// of the key domain.
func fanoutHaving(small bool) *workload {
	w := &workload{
		name: "fanout-having", streams: []string{"s"},
		slide: 4096, keys: 4096, vals: 1000,
		openRate: 200_000, closedRate: 700_000, pool: 32,
	}
	perClique, spans := 128, []int{4, 8}
	if small {
		w.slide, w.keys, w.pool, w.openRate, w.closedRate, perClique = 512, 512, 8, 100_000, 200_000, 8
	}
	for _, span := range spans {
		// Per-key window sum: about span*slide/keys rows of uniform x2.
		rows := float64(span*w.slide) / float64(w.keys)
		mean := rows * float64(w.vals-1) / 2
		ex2 := float64(w.vals-1) * float64(2*w.vals-1) / 6
		sd := math.Sqrt(rows * ex2)
		for i := 0; i < perClique; i++ {
			z := 2.0 + float64(i)/float64(perClique)
			c := int64(mean + z*sd)
			w.queries = append(w.queries, query{
				sql: fmt.Sprintf("SELECT x1, sum(x2) FROM s [RANGE %d SLIDE %d] GROUP BY x1 HAVING sum(x2) > %d",
					span*w.slide, w.slide, c),
				kind: kindHaving, span: span, arg: c,
			})
		}
	}
	return w
}

// joinSkew: two Q2-shape windowed equi-joins over two streams. The x1
// filter keeps ~0.1% of s1 in one statement (the greedy planner builds on
// the filtered side) and ~10% in the other.
func joinSkew(small bool) *workload {
	w := &workload{
		name: "join-skew", streams: []string{"s1", "s2"},
		slide: 4096, keys: 1000, vals: 1024,
		openRate: 1_300_000, closedRate: 3_500_000, pool: 32,
	}
	span := 16
	if small {
		w.slide, w.pool, w.openRate, w.closedRate, span = 1024, 8, 200_000, 400_000, 4
	}
	for _, t := range []int64{1, 100} {
		w.queries = append(w.queries, query{
			sql: fmt.Sprintf("SELECT count(*), sum(s2.x1) FROM s1 [RANGE %d SLIDE %d], s2 [RANGE %d SLIDE %d] WHERE s1.x2 = s2.x2 AND s1.x1 < %d",
				span*w.slide, w.slide, span*w.slide, w.slide, t),
			kind: kindJoin, span: span, arg: t,
		})
	}
	return w
}

// durableIngest: one journaled stream fed in large batches, a count-window
// grouped aggregate over a small filtered key set, and one tumbling 100 ms
// time window. The RAM budget is below the count window, so sealed
// segments are evicted and fetched back while windows are evaluated.
func durableIngest(small bool) *workload {
	w := &workload{
		name: "durable-ingest", streams: []string{"d"},
		slide: 8192, keys: 1024, vals: 1000,
		openRate: 1_500_000, closedRate: 5_000_000, pool: 16,
		durable: true,
	}
	span := 8
	if small {
		w.slide, w.pool, w.openRate, w.closedRate, span = 4096, 8, 200_000, 400_000, 4
	}
	// Two int64 columns: 16 bytes a row; keep a quarter of the window.
	w.ramBudget = int64(span*w.slide) * 16 / 4
	w.queries = []query{
		{
			sql: fmt.Sprintf("SELECT x1, sum(x2) FROM d [RANGE %d SLIDE %d] WHERE x1 < 8 GROUP BY x1",
				span*w.slide, w.slide),
			kind: kindGroup, span: span, arg: 8,
		},
		{sql: "SELECT count(*) FROM d [RANGE 100 MILLISECONDS]", kind: kindTime},
	}
	return w
}

// inputs holds the pre-generated feeder steps: cols[stream][entry] is the
// (x1, x2) column pair of one pool entry, as the feeder appends it.
type inputs struct {
	cols [][][]*vector.Vector
}

// genInputs draws every pool entry from the seed. The same seed gives the
// same inputs.
func genInputs(w *workload, seed int64) *inputs {
	in := &inputs{cols: make([][][]*vector.Vector, len(w.streams))}
	for si := range w.streams {
		r := rand.New(rand.NewPCG(uint64(seed), uint64(si+1)))
		in.cols[si] = make([][]*vector.Vector, w.pool)
		for p := 0; p < w.pool; p++ {
			x1 := make([]int64, w.slide)
			x2 := make([]int64, w.slide)
			for i := range x1 {
				x1[i] = int64(r.IntN(w.keys))
				x2[i] = int64(r.IntN(w.vals))
			}
			in.cols[si][p] = []*vector.Vector{vector.FromInt64(x1), vector.FromInt64(x2)}
		}
	}
	return in
}
