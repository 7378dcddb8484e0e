package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"datacell"
	"datacell/internal/serve"
)

// Span names: one per call into a layer's public functions. The core
// stages are children of engine.pump, taken from Query.Stats() deltas.
const (
	spIngestEncode = iota // serve.AppendVectors (client side of an append)
	spIngestDecode        // serve.DecodeBlock on the append frame
	spAppend              // DB.NewBatch + DB.AppendBatch
	spPump                // DB.Pump
	spFragment            // core fragment stage, join excluded
	spJoin                // core join-matrix stage
	spShared              // core shared (adopted) stage
	spScatter             // core scatter stage
	spPartition           // core partition stage
	spStitch              // core stitch stage
	spMerge               // core merge stage
	spResultEncode        // serve.AppendTable of every window of the step
	spResultDecode        // serve.DecodeBlock of every window of the step
	spVerify              // the benchmark's oracle check
	nSpans
)

var spanNames = [nSpans]string{
	"serve.ingest_encode", "serve.ingest_decode", "engine.append", "engine.pump",
	"core.fragment", "core.join", "core.shared", "core.scatter", "core.partition",
	"core.stitch", "core.merge", "serve.result_encode", "serve.result_decode", "loadgen.verify",
}

// span is one traced interval; start and end are nanoseconds since the
// first timed step, step is the feeder step it belongs to.
type span struct {
	name       uint8
	parent     int32
	step       int32
	start, end int64
}

// runtime/metrics read around every top-level span.
var spanSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/memory/classes/heap/objects:bytes",
}

// runtime/metrics read at the ends of the timed replay.
var runSamples = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

// replayResult is what one in-process replay measured over its timed
// steps.
type replayResult struct {
	wall         time.Duration
	steps, rows  int
	windows      int // window results encoded, decoded and checked
	dur          [nSpans]time.Duration
	allocBytes   [nSpans]uint64
	allocObjects [nSpans]uint64
	allocTotal   uint64
	gcCPU, cpu   float64 // seconds
	heapPeak     uint64  // bytes above the live heap before the replay
	// Query.Stats() deltas summed over statements.
	tailsAdopted, tailsLed, batched int64
	spans                           []span
	attempted, failed               int64
	firstErr                        error
}

// tracer records spans and per-span allocation deltas.
type tracer struct {
	on      bool
	t0      time.Time
	res     *replayResult
	samples []metrics.Sample
	base    uint64 // live heap before the replay
}

func newTracer(res *replayResult) *tracer {
	tr := &tracer{res: res, samples: make([]metrics.Sample, len(spanSamples))}
	for i, n := range spanSamples {
		tr.samples[i].Name = n
	}
	return tr
}

// openSpan marks the start of a top-level span.
type openSpan struct {
	name        int
	step        int
	start       time.Time
	bytes, objs uint64
}

func (tr *tracer) begin(name, step int) openSpan {
	if !tr.on {
		return openSpan{}
	}
	metrics.Read(tr.samples)
	return openSpan{name: name, step: step, bytes: tr.samples[0].Value.Uint64(),
		objs: tr.samples[1].Value.Uint64(), start: time.Now()}
}

// end closes a top-level span and returns its index.
func (tr *tracer) end(o openSpan) int32 {
	if !tr.on {
		return -1
	}
	now := time.Now()
	metrics.Read(tr.samples)
	r := tr.res
	r.dur[o.name] += now.Sub(o.start)
	r.allocBytes[o.name] += tr.samples[0].Value.Uint64() - o.bytes
	r.allocObjects[o.name] += tr.samples[1].Value.Uint64() - o.objs
	if h := tr.samples[2].Value.Uint64(); h > tr.base && h-tr.base > r.heapPeak {
		r.heapPeak = h - tr.base
	}
	r.spans = append(r.spans, span{name: uint8(o.name), parent: -1, step: int32(o.step),
		start: int64(o.start.Sub(tr.t0)), end: int64(now.Sub(tr.t0))})
	return int32(len(r.spans) - 1)
}

// child records a core stage of width d inside pump span parent, laid out
// after the previous child (Stats deltas carry durations, not instants).
func (tr *tracer) child(parent int32, name int, d time.Duration, at *int64) {
	tr.res.dur[name] += d
	p := tr.res.spans[parent]
	tr.res.spans = append(tr.res.spans, span{name: uint8(name), parent: parent, step: p.step,
		start: *at, end: *at + int64(d)})
	*at += int64(d)
}

// pending is one window result produced during a Pump.
type pending struct {
	qi int
	r  *datacell.Result
}

// replay feeds the workload's steps to an in-process DB on one goroutine,
// through the same public calls the server makes, and times each call
// when traced. The first warm steps are untimed.
func replay(cfg *config, w *workload, in *inputs, or *oracle, warm, timed int, traced bool) (*replayResult, error) {
	res := &replayResult{steps: timed, rows: timed * w.stepRows()}
	var db *datacell.DB
	if w.durable {
		dir := filepath.Join(cfg.workDir, "replay-data")
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		var err error
		if db, err = datacell.OpenConfig(dir, datacell.StoreConfig{RAMBudget: w.ramBudget}); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	} else {
		db = datacell.New()
	}
	defer db.Close()
	for _, s := range w.streams {
		if _, _, err := serve.ExecStatement(db, fmt.Sprintf("CREATE STREAM %s (x1 BIGINT, x2 BIGINT)", s)); err != nil {
			return nil, err
		}
	}
	var out []pending
	qs := make([]*datacell.Query, len(w.queries))
	checkers := make([]*checker, len(w.queries))
	delivered := make([]int, len(w.queries))
	for qi := range w.queries {
		q, err := db.Register(w.queries[qi].sql, datacell.Options{})
		if err != nil {
			return nil, fmt.Errorf("register %q: %w", w.queries[qi].sql, err)
		}
		qi := qi
		q.OnResult(func(r *datacell.Result) { out = append(out, pending{qi, r}) })
		qs[qi] = q
		checkers[qi] = newChecker(or, qi)
	}
	fail := func(err error) {
		res.failed++
		if res.firstErr == nil {
			res.firstErr = err
		}
	}

	tr := newTracer(res)
	prev := make([]datacell.QueryStats, len(qs))
	base := make([]datacell.QueryStats, len(qs))
	run := make([]metrics.Sample, len(runSamples))
	for i, n := range runSamples {
		run[i].Name = n
	}
	var buf []byte
	var payloads [][]byte
	var tables []*datacell.Table
	var start time.Time
	total := warm + timed
	step := func(i int) error {
		p := i % w.pool
		for si, s := range w.streams {
			sp := tr.begin(spIngestEncode, i)
			buf = serve.AppendVectors(buf[:0], nil, in.cols[si][p])
			tr.end(sp)
			sp = tr.begin(spIngestDecode, i)
			blk, err := serve.DecodeBlock(buf)
			tr.end(sp)
			if err != nil {
				return err
			}
			sp = tr.begin(spAppend, i)
			b, err := db.NewBatch(s)
			if err == nil {
				b.Int64Col("x1").AppendSlice(blk.Cols[0].Int64s())
				b.Int64Col("x2").AppendSlice(blk.Cols[1].Int64s())
				err = db.AppendBatch(s, b)
			}
			tr.end(sp)
			res.attempted++
			if err != nil {
				fail(fmt.Errorf("append step %d: %w", i, err))
				return err
			}
		}
		out = out[:0]
		sp := tr.begin(spPump, i)
		_, err := db.Pump()
		pump := tr.end(sp)
		if err != nil {
			return fmt.Errorf("pump step %d: %w", i, err)
		}
		if tr.on {
			var d [nSpans]time.Duration
			for qi, q := range qs {
				st := q.Stats()
				o := prev[qi]
				d[spFragment] += (st.Fragment - st.Join) - (o.Fragment - o.Join)
				d[spJoin] += st.Join - o.Join
				d[spShared] += st.Shared - o.Shared
				d[spScatter] += st.Scatter - o.Scatter
				d[spPartition] += st.Partition - o.Partition
				d[spStitch] += st.Stitch - o.Stitch
				d[spMerge] += st.Merge - o.Merge
				prev[qi] = st
			}
			at := res.spans[pump].start
			for name := spFragment; name <= spMerge; name++ {
				tr.child(pump, name, d[name], &at)
			}
		}

		sp = tr.begin(spResultEncode, i)
		payloads = payloads[:0]
		for _, o := range out {
			t := o.r.Table
			b := make([]byte, 0, 64+16*len(t.Cols)*(1+t.NumRows()))
			b = binary.BigEndian.AppendUint64(b, uint64(o.r.Window))
			b = binary.BigEndian.AppendUint64(b, uint64(time.Now().UnixMicro()))
			b = binary.BigEndian.AppendUint64(b, uint64(o.r.Latency))
			payloads = append(payloads, serve.AppendTable(b, t))
		}
		tr.end(sp)
		sp = tr.begin(spResultDecode, i)
		tables = tables[:0]
		for _, pl := range payloads {
			blk, err := serve.DecodeBlock(pl[24:])
			if err != nil {
				tr.end(sp)
				return fmt.Errorf("decode result: %w", err)
			}
			tables = append(tables, blk.Table())
		}
		tr.end(sp)
		sp = tr.begin(spVerify, i)
		for k, o := range out {
			if cfg.mutate != nil {
				cfg.mutate(o.qi, o.r.Window, tables[k])
			}
			q := &w.queries[o.qi]
			if q.counted() {
				if o.r.Window != delivered[o.qi]+1 {
					fail(fmt.Errorf("%s: window %d, want %d", q.sql, o.r.Window, delivered[o.qi]+1))
				}
				delivered[o.qi] = o.r.Window
			}
			if err := checkers[o.qi].check(o.r.Window, tables[k]); err != nil {
				fail(fmt.Errorf("%s: %w", q.sql, err))
			}
		}
		tr.end(sp)
		if tr.on {
			res.windows += len(out)
		}
		return nil
	}
	for i := 0; i < total; i++ {
		if i == warm {
			runtime.GC()
			tr.on = traced
			if traced {
				for qi, q := range qs {
					prev[qi] = q.Stats()
				}
				copy(base, prev)
				metrics.Read(tr.samples)
				tr.base = tr.samples[2].Value.Uint64()
				metrics.Read(run)
			}
			start = time.Now()
			tr.t0 = start
		}
		if err := step(i); err != nil {
			return nil, err
		}
	}
	res.wall = time.Since(start)
	tr.on = false
	if traced {
		before := append([]metrics.Sample(nil), run...)
		metrics.Read(run)
		res.allocTotal = run[0].Value.Uint64() - before[0].Value.Uint64()
		res.gcCPU = run[1].Value.Float64() - before[1].Value.Float64()
		res.cpu = (run[2].Value.Float64() - before[2].Value.Float64()) -
			(run[3].Value.Float64() - before[3].Value.Float64())
		for qi, q := range qs {
			st := q.Stats()
			res.tailsAdopted += st.AdoptedTails - base[qi].AdoptedTails
			res.tailsLed += st.LedTails - base[qi].LedTails
			res.batched += st.BatchedSlides - base[qi].BatchedSlides
		}
	}

	// Time windows close on a later arrival: pause past the window, run one
	// flush step, and check that every earlier row was counted.
	conserve := -1
	for qi := range w.queries {
		if !w.queries[qi].counted() {
			conserve = qi
		}
	}
	if conserve >= 0 {
		time.Sleep(250 * time.Millisecond)
		if err := step(total); err != nil {
			return nil, err
		}
		total++
		res.attempted++
		if got, want := checkers[conserve].rows, int64((total-1)*w.slide); got != want {
			fail(fmt.Errorf("%s: time windows counted %d rows, %d were sent before the flush", w.queries[conserve].sql, got, want))
		}
	}
	for qi := range w.queries {
		q := &w.queries[qi]
		if !q.counted() {
			continue
		}
		want := due(q, total)
		res.attempted += want
		if missing := want - int64(delivered[qi]); missing > 0 {
			res.failed += missing
			if res.firstErr == nil {
				res.firstErr = fmt.Errorf("%s: %d windows missing", q.sql, missing)
			}
		}
	}
	return res, nil
}

// writeSpans writes the recorded spans as tab-separated lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "id\tname\tparent\tstep\tstart_ns\tend_ns")
	for i, s := range spans {
		fmt.Fprintf(bw, "%d\t%s\t%d\t%d\t%d\t%d\n", i, spanNames[s.name], s.parent, s.step, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
