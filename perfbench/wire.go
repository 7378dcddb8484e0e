package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"datacell/internal/serve"
)

// A run times setupRuns set-ups, each a server spawned and every
// statement registered: setupsBefore before the phases, the last of them
// the instance measured, setupsPerRound after each closed-loop round, and
// the rest after the run. The host's speed drifts over seconds, so the
// median setup_s samples it at several moments. The count is odd so the
// median is one of the set-ups.
const (
	setupRuns      = 17
	setupsBefore   = 4
	setupsPerRound = 2
)

// closedRounds splits the closed loop; throughput is the median round.
const closedRounds = 5

// inflight is how many feeder steps the closed loop may run ahead of the
// slowest due window.
const inflight = 2

// subBuffer sizes each subscription's server queue and client channel:
// the closed loop keeps two windows in flight, and the open loop runs at
// about a third of the closed-loop rate, so a handful of frames is the
// steady depth.
const subBuffer = 64

// stallTimeout fails a run whose due windows stop arriving.
const stallTimeout = 60 * time.Second

// sample is one open-loop (subscription, window) latency split: total is
// scheduled send to decode, step is the engine's step time, wire is
// server encode stamp to decode. slot is the open-loop send, counted from
// 0, that completed the window.
type sample struct {
	total, step, wire time.Duration
	slot              int
}

// subState is one subscription and the checks of its windows. The
// consuming goroutine owns everything but the atomics until it exits.
type subState struct {
	qi  int
	q   *query
	sub *serve.Sub
	ck  *checker
	// delivered is the last in-order window (count windows) or the number
	// of windows received (time windows).
	delivered atomic.Int64
	timeRows  atomic.Int64
	samples   []sample
	failed    int64
	firstErr  error
}

func (st *subState) fail(err error) {
	st.failed++
	if st.firstErr == nil {
		st.firstErr = err
	}
}

// openSchedule publishes the open-loop timetable to the consumers: step
// first+k is due at t0 + k*period.
type openSchedule struct {
	first, n int
	t0       time.Time
	period   time.Duration
}

// wireRun drives one spawned datacelld: a feeder connection and one
// subscriber connection that carries every subscription.
type wireRun struct {
	cfg *config
	w   *workload
	in  *inputs
	or  *oracle

	srv            *server
	dataDir        string
	feeder, subcon *serve.Client
	subs           []*subState

	sent         int // feeder steps appended
	appends      int64
	appendFailed int64
	open         atomic.Pointer[openSchedule]
	progress     chan struct{}
	wg           sync.WaitGroup
}

// wireResult is what the wire run measured.
type wireResult struct {
	setups                 []float64
	warmSteps, closedSteps int
	closedRates            []float64 // rows/s of each closed-loop round
	openSteps              int
	warmWall, closedWall   time.Duration
	openWall               time.Duration
	serverCPU              time.Duration
	rssMB                  float64
	samples                []sample
	period                 time.Duration // open-loop send interval
	// late is how long after it was due and the previous append was
	// acknowledged each open-loop step was sent.
	late []time.Duration
	// loadgenFrac is the harness's CPU ÷ wall in the closed and in the
	// open loop.
	loadgenFrac           [2]float64
	attempted, failed     int64
	firstErr              error
	afterSetup, afterWarm scrape
	afterClosed, end      scrape
}

// setup spawns a server, connects, creates the streams and registers every
// statement — the span setup_s measures.
func (r *wireRun) setup(dataDir string) error {
	srv, err := startServer(r.cfg.serverBin, r.cfg.serverProcs, dataDir, r.w.ramBudget)
	if err != nil {
		return err
	}
	r.srv, r.dataDir = srv, dataDir
	if r.feeder, err = serve.Dial(srv.addr); err != nil {
		return err
	}
	if r.subcon, err = serve.Dial(srv.addr); err != nil {
		return err
	}
	for _, s := range r.w.streams {
		if _, _, err := r.feeder.Stmt(fmt.Sprintf("CREATE STREAM %s (x1 BIGINT, x2 BIGINT)", s)); err != nil {
			return fmt.Errorf("create stream %s: %w", s, err)
		}
	}
	r.subs = make([]*subState, len(r.w.queries))
	for qi := range r.w.queries {
		q := &r.w.queries[qi]
		sub, err := r.subcon.Register(q.sql, serve.RegisterOptions{Policy: serve.PolicyBlock, Buffer: subBuffer})
		if err != nil {
			return fmt.Errorf("register %q: %w", q.sql, err)
		}
		r.subs[qi] = &subState{qi: qi, q: q, sub: sub, ck: newChecker(r.or, qi)}
	}
	return nil
}

// teardown closes the connections, drains the server and drops its data.
func (r *wireRun) teardown() error {
	var errs []error
	for _, c := range []*serve.Client{r.feeder, r.subcon} {
		if c != nil {
			c.Close()
		}
	}
	r.feeder, r.subcon = nil, nil
	if r.srv != nil {
		errs = append(errs, r.srv.stop())
		r.srv = nil
	}
	if r.dataDir != "" {
		errs = append(errs, os.RemoveAll(r.dataDir))
	}
	return errors.Join(errs...)
}

// consume reads one subscription until its channel ends, checking every
// window and recording open-loop latency samples.
func (r *wireRun) consume(st *subState) {
	defer r.wg.Done()
	for {
		res, err := st.sub.Recv(context.Background())
		if err != nil {
			return
		}
		now := time.Now()
		if r.cfg.mutate != nil {
			r.cfg.mutate(st.qi, res.Window, res.Table)
		}
		if !st.q.counted() {
			if err := st.ck.check(res.Window, res.Table); err != nil {
				st.fail(err)
			}
			st.timeRows.Store(st.ck.rows)
			st.delivered.Add(1)
			r.notify()
			continue
		}
		if want := st.delivered.Load() + 1; int64(res.Window) != want {
			st.fail(fmt.Errorf("%s: window %d arrived, want %d", st.q.sql, res.Window, want))
		} else if err := st.ck.check(res.Window, res.Table); err != nil {
			st.fail(fmt.Errorf("%s: %w", st.q.sql, err))
		}
		trigger := res.Window + st.q.span - 2
		if sch := r.open.Load(); sch != nil && trigger >= sch.first && trigger < sch.first+sch.n {
			sched := sch.t0.Add(time.Duration(trigger-sch.first) * sch.period)
			st.samples = append(st.samples, sample{
				total: now.Sub(sched),
				step:  res.Latency,
				wire:  now.Sub(res.Emitted),
				slot:  trigger - sch.first,
			})
		}
		st.delivered.Store(int64(res.Window))
		r.notify()
	}
}

func (r *wireRun) notify() {
	select {
	case r.progress <- struct{}{}:
	default:
	}
}

// due is how many windows of a count query are complete after steps
// feeder steps.
func due(q *query, steps int) int64 {
	return max(0, int64(steps-q.span+1))
}

// waitDue blocks until every count-window subscription has delivered the
// windows complete after steps feeder steps.
func (r *wireRun) waitDue(steps int) error {
	timer := time.NewTimer(stallTimeout)
	defer timer.Stop()
	for {
		ok := true
		for _, st := range r.subs {
			if st.q.counted() && st.delivered.Load() < due(st.q, steps) {
				ok = false
				break
			}
		}
		if ok {
			return nil
		}
		select {
		case <-r.progress:
			timer.Reset(stallTimeout)
		case <-timer.C:
			return fmt.Errorf("no window delivered for %s (steps sent %d)", stallTimeout, steps)
		}
	}
}

// sendStep appends feeder step r.sent to every stream.
func (r *wireRun) sendStep() error {
	p := r.sent % r.w.pool
	for si, s := range r.w.streams {
		r.appends++
		if err := r.feeder.Append(s, nil, r.in.cols[si][p]); err != nil {
			r.appendFailed++
			return fmt.Errorf("append step %d to %s: %w", r.sent, s, err)
		}
	}
	r.sent++
	return nil
}

// closedLoop sends steps while keeping at most inflight steps ahead of the
// slowest due window, until stop reports true for the steps sent so far;
// it then waits for every due window. It returns the steps sent and the
// wall time from the first send to the last window.
func (r *wireRun) closedLoop(stop func(steps int, start time.Time) bool) (int, time.Duration, error) {
	start := time.Now()
	first := r.sent
	for !stop(r.sent-first, start) {
		if err := r.waitDue(r.sent - inflight + 1); err != nil {
			return 0, 0, err
		}
		if err := r.sendStep(); err != nil {
			return 0, 0, err
		}
	}
	if err := r.waitDue(r.sent); err != nil {
		return 0, 0, err
	}
	return r.sent - first, time.Since(start), nil
}

// everyFired reports whether every subscription has delivered a window.
func (r *wireRun) everyFired() bool {
	for _, st := range r.subs {
		if st.delivered.Load() == 0 {
			return false
		}
	}
	return true
}

// rusageCPU is this process's user+system CPU time.
func rusageCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timedSetup sets r up, on a fresh data directory when the workload is
// durable, and appends the seconds it took to res.setups.
func (r *wireRun) timedSetup(res *wireResult) error {
	dataDir := ""
	if r.w.durable {
		dataDir = filepath.Join(r.cfg.workDir, fmt.Sprintf("data-%d", len(res.setups)))
		if err := os.RemoveAll(dataDir); err != nil {
			return err
		}
	}
	t0 := time.Now()
	if err := r.setup(dataDir); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	res.setups = append(res.setups, time.Since(t0).Seconds())
	return nil
}

// spareSetups times n set-ups of instances that are torn down at once.
func (r *wireRun) spareSetups(res *wireResult, n int) error {
	for i := 0; i < n; i++ {
		spare := &wireRun{cfg: r.cfg, w: r.w, or: r.or}
		err := spare.timedSetup(res)
		if terr := spare.teardown(); err == nil && terr != nil {
			err = fmt.Errorf("setup teardown: %w", terr)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// runWire performs the set-ups and the four phases against a spawned
// datacelld and collects the end-to-end figures.
func runWire(cfg *config, w *workload, in *inputs, or *oracle) (res *wireResult, err error) {
	r := &wireRun{cfg: cfg, w: w, in: in, or: or, progress: make(chan struct{}, 1)}
	res = &wireResult{}
	defer func() {
		if terr := r.teardown(); err == nil && terr != nil {
			err = fmt.Errorf("server shutdown: %w", terr)
		}
		r.wg.Wait()
	}()
	if err := r.spareSetups(res, setupsBefore-1); err != nil {
		return nil, err
	}
	if err := r.timedSetup(res); err != nil {
		return nil, err
	}
	for _, st := range r.subs {
		r.wg.Add(1)
		go r.consume(st)
	}
	ctx := context.Background()
	pid := r.srv.cmd.Process.Pid
	if res.afterSetup, err = r.srv.scrapeMetrics(ctx); err != nil {
		return nil, err
	}

	// Warm-up: untimed, until every window has fired once.
	minWarm := time.Duration(cfg.seconds * 0.05 * float64(time.Second))
	res.warmSteps, res.warmWall, err = r.closedLoop(func(_ int, start time.Time) bool {
		return r.everyFired() && time.Since(start) >= minWarm
	})
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if res.afterWarm, err = r.srv.scrapeMetrics(ctx); err != nil {
		return nil, err
	}

	// Closed loop: a fixed amount of work, sized so the phase lasts about
	// closedShare of the run at the workload's nominal rate, in rounds that
	// each start from a drained pipeline. Fixed work keeps the server's
	// state at the start of the open loop the same from run to run.
	steps := int(cfg.seconds * closedShare * w.closedRate / float64(w.stepRows()))
	steps = max(steps, closedRounds)
	var loadgenCPU time.Duration
	for k := 0; k < closedRounds; k++ {
		want := steps / closedRounds
		if k == closedRounds-1 {
			want = steps - res.closedSteps
		}
		cpu0 := rusageCPU()
		n, wall, err := r.closedLoop(func(sent int, _ time.Time) bool { return sent >= want })
		if err != nil {
			return nil, fmt.Errorf("closed loop: %w", err)
		}
		loadgenCPU += rusageCPU() - cpu0
		res.closedSteps += n
		res.closedWall += wall
		res.closedRates = append(res.closedRates, float64(n*w.stepRows())/wall.Seconds())
		if err := r.spareSetups(res, setupsPerRound); err != nil {
			return nil, err
		}
	}
	res.loadgenFrac[0] = loadgenCPU.Seconds() / res.closedWall.Seconds()
	if res.afterClosed, err = r.srv.scrapeMetrics(ctx); err != nil {
		return nil, err
	}

	// Open loop: one step every period, timed from its scheduled send.
	openDur := time.Duration(cfg.seconds * (1 - closedShare) * float64(time.Second))
	period := time.Duration(float64(time.Second) * float64(w.stepRows()) / w.openRate)
	n := max(1, int(openDur/period))
	res.period = period
	scpu0, err := cpuTime(pid)
	if err != nil {
		return nil, err
	}
	cpu0 := rusageCPU()
	sched := &openSchedule{first: r.sent, n: n, t0: time.Now().Add(time.Millisecond), period: period}
	r.open.Store(sched)
	// An append is acknowledged by the server, so a slow acknowledgement
	// delays the next send; that delay is the server's, and counts in its
	// latency. The feeder's own lateness is how long after it was due and
	// free a step was sent.
	free := sched.t0
	for k := 0; k < n; k++ {
		at := sched.t0.Add(time.Duration(k) * period)
		if cfg.beforeSend != nil {
			cfg.beforeSend(period)
		}
		if d := time.Until(at); d > 0 {
			time.Sleep(d)
		}
		if free.Before(at) {
			free = at
		}
		res.late = append(res.late, time.Since(free))
		if err := r.sendStep(); err != nil {
			return nil, fmt.Errorf("open loop: %w", err)
		}
		free = time.Now()
	}
	if err := r.waitDue(r.sent); err != nil {
		return nil, fmt.Errorf("open loop: %w", err)
	}
	res.openWall = time.Since(sched.t0)
	res.openSteps = n
	res.loadgenFrac[1] = (rusageCPU() - cpu0).Seconds() / res.openWall.Seconds()
	scpu1, err := cpuTime(pid)
	if err != nil {
		return nil, err
	}
	res.serverCPU = scpu1 - scpu0
	// Time windows close on a later arrival: pause past the window, send
	// one flush step, and check that every row sent before it was counted.
	var conserved *subState
	for _, st := range r.subs {
		if !st.q.counted() {
			conserved = st
		}
	}
	rowsBefore := int64(r.sent * w.slide)
	if conserved != nil {
		time.Sleep(250 * time.Millisecond)
		if err := r.sendStep(); err != nil {
			return nil, fmt.Errorf("flush: %w", err)
		}
		if err := r.waitDue(r.sent); err != nil {
			return nil, fmt.Errorf("flush: %w", err)
		}
		deadline := time.Now().Add(stallTimeout)
		for conserved.timeRows.Load() < rowsBefore && time.Now().Before(deadline) {
			select {
			case <-r.progress:
			case <-time.After(100 * time.Millisecond):
			}
		}
	}
	if res.end, err = r.srv.scrapeMetrics(ctx); err != nil {
		return nil, err
	}
	if res.rssMB, err = peakRSSMB(pid); err != nil {
		return nil, err
	}

	// End the subscriptions and account every (subscription, window).
	if err := r.teardown(); err != nil {
		return nil, fmt.Errorf("server shutdown: %w", err)
	}
	r.wg.Wait()
	res.attempted, res.failed = r.appends, r.appendFailed
	for _, st := range r.subs {
		res.samples = append(res.samples, st.samples...)
		res.failed += st.failed
		if res.firstErr == nil {
			res.firstErr = st.firstErr
		}
		if !st.q.counted() {
			res.attempted += st.delivered.Load() + 1
			if got := st.timeRows.Load(); got != rowsBefore {
				res.failed++
				if res.firstErr == nil {
					res.firstErr = fmt.Errorf("%s: time windows counted %d rows, %d were sent before the flush", st.q.sql, got, rowsBefore)
				}
			}
			continue
		}
		want := due(st.q, r.sent)
		res.attempted += want
		if missing := want - st.delivered.Load(); missing > 0 {
			res.failed += missing
			if res.firstErr == nil {
				res.firstErr = fmt.Errorf("%s: %d windows missing", st.q.sql, missing)
			}
		}
	}
	if err := r.spareSetups(res, setupRuns-setupsBefore-setupsPerRound*closedRounds); err != nil {
		return nil, err
	}
	return res, nil
}
