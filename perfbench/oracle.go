package main

import (
	"fmt"
	"slices"

	"datacell"
	"datacell/internal/vector"
)

// oracle holds every count-window query's expected results. Inputs are
// periodic in the pool size, so window w of a query equals window
// (w-1) mod pool + 1; each table below is indexed by that class.
type oracle struct {
	w *workload
	// byQuery[q][class] is the expected window of query q.
	byQuery [][]expected
}

// expected is one window's reference result.
type expected struct {
	// sums[k] and cnt[k] aggregate x2 and rows per x1 key (grouped kinds).
	sums, cnt []int64
	// desc is sums sorted descending (HAVING: result size by binary search).
	desc []int64
	// count and sum are the join's two output values.
	count, sum int64
}

// hist accumulates per-key row counts and value sums.
type hist struct{ cnt, sum []int64 }

func newHist(n int) hist { return hist{cnt: make([]int64, n), sum: make([]int64, n)} }

func (h hist) add(o hist) {
	for i := range h.cnt {
		h.cnt[i] += o.cnt[i]
		h.sum[i] += o.sum[i]
	}
}

// buildOracle computes the expected windows from the generated inputs with
// plain map-free aggregation: per-step histograms, summed over each
// window's steps.
func buildOracle(w *workload, in *inputs) *oracle {
	o := &oracle{w: w, byQuery: make([][]expected, len(w.queries))}
	// Per-step histograms of x2 by x1 (grouped kinds, stream 0).
	var byKey []hist
	// Per-step histograms of s2.x1 by join key x2, and per join query the
	// filtered s1 row counts by join key.
	var s2ByKey []hist
	s1Filtered := map[int64][]hist{}
	for qi := range w.queries {
		q := &w.queries[qi]
		switch q.kind {
		case kindHaving, kindGroup:
			if byKey == nil {
				byKey = make([]hist, w.pool)
				for p := range byKey {
					h := newHist(w.keys)
					x1, x2 := in.cols[0][p][0].Int64s(), in.cols[0][p][1].Int64s()
					for i, k := range x1 {
						h.cnt[k]++
						h.sum[k] += x2[i]
					}
					byKey[p] = h
				}
			}
		case kindJoin:
			if s2ByKey == nil {
				s2ByKey = make([]hist, w.pool)
				for p := range s2ByKey {
					h := newHist(w.vals)
					x1, x2 := in.cols[1][p][0].Int64s(), in.cols[1][p][1].Int64s()
					for i, k := range x2 {
						h.cnt[k]++
						h.sum[k] += x1[i]
					}
					s2ByKey[p] = h
				}
			}
			if s1Filtered[q.arg] == nil {
				hs := make([]hist, w.pool)
				for p := range hs {
					h := newHist(w.vals)
					x1, x2 := in.cols[0][p][0].Int64s(), in.cols[0][p][1].Int64s()
					for i, k := range x2 {
						if x1[i] < q.arg {
							h.cnt[k]++
						}
					}
					hs[p] = h
				}
				s1Filtered[q.arg] = hs
			}
		}
	}
	window := func(steps []hist, class, span, n int) hist {
		h := newHist(n)
		for k := 0; k < span; k++ {
			h.add(steps[(class+k)%len(steps)])
		}
		return h
	}
	// Statements that differ only in a HAVING constant share one table.
	shared := map[[2]int64][]expected{}
	for qi := range w.queries {
		q := &w.queries[qi]
		if !q.counted() {
			continue
		}
		key := [2]int64{int64(q.span), -1}
		if q.kind == kindJoin {
			key[1] = q.arg
		}
		if classes, ok := shared[key]; ok {
			o.byQuery[qi] = classes
			continue
		}
		classes := make([]expected, w.pool)
		for c := range classes {
			switch q.kind {
			case kindHaving, kindGroup:
				h := window(byKey, c, q.span, w.keys)
				e := expected{sums: h.sum, cnt: h.cnt, desc: slices.Clone(h.sum)}
				slices.Sort(e.desc)
				slices.Reverse(e.desc)
				classes[c] = e
			case kindJoin:
				l := window(s1Filtered[q.arg], c, q.span, w.vals)
				r := window(s2ByKey, c, q.span, w.vals)
				var e expected
				for k := range l.cnt {
					e.count += l.cnt[k] * r.cnt[k]
					e.sum += l.cnt[k] * r.sum[k]
				}
				classes[c] = e
			}
		}
		shared[key] = classes
		o.byQuery[qi] = classes
	}
	return o
}

// checker verifies decoded windows of one query. It is owned by one
// goroutine: seen is scratch for duplicate-key detection.
type checker struct {
	o    *oracle
	qi   int
	seen []uint32
	gen  uint32
	// rows is the time-window row total (kindTime).
	rows int64
}

func newChecker(o *oracle, qi int) *checker {
	return &checker{o: o, qi: qi, seen: make([]uint32, o.w.keys)}
}

// int64Col returns column c of t as int64 values, or an error naming it.
func int64Col(t *datacell.Table, c int) ([]int64, error) {
	if c >= len(t.Cols) {
		return nil, fmt.Errorf("result has %d columns, want column %d", len(t.Cols), c)
	}
	v := t.Cols[c]
	if v.Type() != vector.Int64 {
		return nil, fmt.Errorf("column %d is %s, want BIGINT", c, v.Type())
	}
	return v.Int64s(), nil
}

// check compares window (1-based) of the checker's query with the oracle.
func (ck *checker) check(window int, t *datacell.Table) error {
	q := &ck.o.w.queries[ck.qi]
	if t == nil {
		return fmt.Errorf("window %d: no table", window)
	}
	if q.kind == kindTime {
		return ck.checkTime(window, t)
	}
	e := &ck.o.byQuery[ck.qi][(window-1)%ck.o.w.pool]
	if q.kind == kindJoin {
		if t.NumRows() != 1 {
			return fmt.Errorf("window %d: %d rows, want 1", window, t.NumRows())
		}
		cnt, err := int64Col(t, 0)
		if err != nil {
			return err
		}
		sum, err := int64Col(t, 1)
		if err != nil {
			return err
		}
		if cnt[0] != e.count || sum[0] != e.sum {
			return fmt.Errorf("window %d: got (%d, %d), want (%d, %d)", window, cnt[0], sum[0], e.count, e.sum)
		}
		return nil
	}
	keys, err := int64Col(t, 0)
	if err != nil {
		return err
	}
	sums, err := int64Col(t, 1)
	if err != nil {
		return err
	}
	var want int
	if q.kind == kindHaving {
		// desc is descending: count the prefix above the constant.
		want, _ = slices.BinarySearchFunc(e.desc, q.arg, func(v, c int64) int {
			if v > c {
				return -1
			}
			return 1
		})
	} else {
		for k := int64(0); k < q.arg && int(k) < len(e.cnt); k++ {
			if e.cnt[k] > 0 {
				want++
			}
		}
	}
	if len(keys) != want {
		return fmt.Errorf("window %d: %d groups, want %d", window, len(keys), want)
	}
	ck.gen++
	for i, k := range keys {
		if k < 0 || int(k) >= len(e.sums) {
			return fmt.Errorf("window %d: key %d out of domain", window, k)
		}
		if ck.seen[k] == ck.gen {
			return fmt.Errorf("window %d: key %d twice", window, k)
		}
		ck.seen[k] = ck.gen
		if sums[i] != e.sums[k] || e.cnt[k] == 0 {
			return fmt.Errorf("window %d: key %d sum %d, want %d", window, k, sums[i], e.sums[k])
		}
		if q.kind == kindHaving && sums[i] <= q.arg {
			return fmt.Errorf("window %d: key %d sum %d fails HAVING > %d", window, k, sums[i], q.arg)
		}
		if q.kind == kindGroup && k >= q.arg {
			return fmt.Errorf("window %d: key %d fails WHERE x1 < %d", window, k, q.arg)
		}
	}
	return nil
}

// checkTime accumulates a time window's row count. Every batch carries one
// arrival stamp, so a window holds whole steps.
func (ck *checker) checkTime(window int, t *datacell.Table) error {
	if t.NumRows() == 0 {
		return nil
	}
	cnt, err := int64Col(t, 0)
	if err != nil {
		return err
	}
	if t.NumRows() != 1 {
		return fmt.Errorf("time window %d: %d rows, want 1", window, t.NumRows())
	}
	n := cnt[0]
	if n < 0 || n%int64(ck.o.w.slide) != 0 {
		return fmt.Errorf("time window %d: %d rows is not a whole number of %d-row batches", window, n, ck.o.w.slide)
	}
	ck.rows += n
	return nil
}
