package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/gsalert/gsalert/internal/collection"
	"github.com/gsalert/gsalert/internal/event"
	"github.com/gsalert/gsalert/internal/protocol"
	"github.com/gsalert/gsalert/internal/qos"
)

// failures counts what the oracle found wrong.
type failures struct {
	Missed     int `json:"missed"`
	Duplicated int `json:"duplicated"`
	Unexpected int `json:"unexpected"`
	OutOfOrder int `json:"out_of_order"`
	// Shed counts matches the QoS controller deferred or coalesced and
	// notifications the pipeline refused; Parked those returned to a
	// mailbox or evicted from one instead of reaching the client.
	Shed   int `json:"shed"`
	Parked int `json:"parked"`
	// Errors counts failed calls and undecodable envelopes.
	Errors int `json:"errors"`
}

func (f *failures) add(g failures) {
	f.Missed += g.Missed
	f.Duplicated += g.Duplicated
	f.Unexpected += g.Unexpected
	f.OutOfOrder += g.OutOfOrder
	f.Shed += g.Shed
	f.Parked += g.Parked
	f.Errors += g.Errors
}

func (f failures) total() int {
	return f.Missed + f.Duplicated + f.Unexpected + f.OutOfOrder + f.Shed + f.Parked + f.Errors
}

// counters is a snapshot of the system's own counters, summed over the
// cluster, taken at phase boundaries.
type counters struct {
	mallocs     uint64
	bytes       int64
	perType     map[protocol.MessageType]int64
	dups, recvd int64
	admitted    int64
	shed        int64
	parked      int64
	evals       int64
}

func (c *cluster) counters() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st := c.mem.Stats()
	out := counters{mallocs: ms.Mallocs, bytes: st.Bytes, perType: st.PerType}
	for i, svc := range c.svcs {
		s := svc.Stats()
		out.dups += s.DuplicatesDropped
		out.recvd += s.EventsReceived
		out.admitted += s.QoSAdmitted
		out.shed += s.QoSDeferred + s.QoSCoalesced + s.NotifyFailures
		dm := svc.Delivery().Metrics()
		out.parked += dm.Parked.Value() + dm.Dropped.Value()
		out.evals += c.matchers[i].Stats().Evaluations
	}
	return out
}

// dissemination counts the GDS and GS-network messages among perType:
// the gds.* types, gs.event and gs.forward-profile.
func dissemination(perType map[protocol.MessageType]int64) int64 {
	var n int64
	for typ, v := range perType {
		if strings.HasPrefix(string(typ), "gds.") || typ == protocol.MsgEvent || typ == protocol.MsgForwardProfile {
			n += v
		}
	}
	return n
}

// measurement is what one assembled cluster yields over its phases.
type measurement struct {
	setupS []float64
	heapMB float64
	// Open-loop samples in ms: publish calls, notification latencies from
	// the event's due time (all and realtime-class only), profile changes
	// and the generator's lateness.
	publishMS, notifyMS, notifyRTMS, subscribeMS, lateMS []float64
	eventsPerS                                           []float64 // per closed-loop batch
	// Per open-loop event, over the open-loop segments and their drains.
	dissem, wireBytes, allocs float64
	attempted                 int
	fails                     failures
	standbyErr                error
	// Traced runs only: the tracer, the per-layer metrics derived from
	// it, and the open loop's maximum delivery backlog and replication lag.
	tr                 *tracer
	layer              map[string]float64
	backlogMax, lagMax int
	open               [][2]counters // start and end of each open-loop segment
	total              [2]counters   // before the first step and after the last drain
}

// openSum sums f's growth over the open-loop segments.
func (m *measurement) openSum(f func(counters) int64) float64 {
	var n int64
	for _, s := range m.open {
		n += f(s[1]) - f(s[0])
	}
	return float64(n)
}

// measure assembles the workload's cluster `setups` times (keeping the
// last), runs the open-loop segments at the workload's rate and the
// closed-loop batches between them, and checks every arrival against the
// oracle. With tr set, the cluster is wired through the tracing wrappers.
func measure(ctx context.Context, in *inputs, setups int, tr *tracer) (*measurement, error) {
	m := &measurement{tr: tr}
	defer tr.bind()()
	var c *cluster
	var before uint64 // live heap without a cluster: the harness's own
	for k := 0; k < setups; k++ {
		if c != nil {
			c.close()
		}
		before = liveHeap()
		start := time.Now()
		var err error
		if c, err = assemble(ctx, in, tr); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		m.setupS = append(m.setupS, time.Since(start).Seconds())
	}
	defer c.close()
	m.heapMB = float64(liveHeap()-before) / 1e6
	// Room for every expected notification, so the endpoint never grows
	// its record slice while the delivery workers wait on its lock.
	c.ep.reserve(in.expected[0] + in.expected[1])

	due := make([]time.Time, len(in.steps))
	start := make([]time.Time, closedBatches)
	end := make([]time.Time, closedBatches)
	events := make([]int, closedBatches)

	// The steps alternate between open-loop segments and closed-loop
	// batches. An open step is due on the open schedule, which a batch
	// pauses: the open step after a batch is due as long after the batch's
	// end as it was after the open step before the batch. A batch is
	// published back to back and timed until its last notification
	// arrives. Every segment and batch is drained before the next starts.
	stopSampler := c.sample()
	m.total[0] = c.counters()
	origin := time.Now() // open step k is due at origin + in.due[k]
	var lastDue time.Duration
	var segStart counters
	for k, st := range in.steps {
		first := k == 0 || in.steps[k-1].closed != st.closed || in.steps[k-1].batch != st.batch
		last := k+1 == len(in.steps) || in.steps[k+1].closed != st.closed || in.steps[k+1].batch != st.batch
		if st.closed {
			if first {
				tr.setPhase(phaseClosed)
				start[st.batch] = time.Now()
			}
			due[k] = time.Now()
			if err := c.runStep(ctx, in, st, m, false); err != nil {
				m.fails.Errors++
			}
			end[st.batch] = time.Now()
			if st.kind == stepPublish {
				events[st.batch]++
			}
		} else {
			if first {
				tr.setPhase(phaseOpen)
				origin = time.Now().Add(-lastDue)
				segStart = c.counters()
			}
			d := origin.Add(in.due[k])
			if wait := time.Until(d); wait > 0 {
				time.Sleep(wait)
			}
			m.lateMS = append(m.lateMS, ms(time.Since(d)))
			due[k] = d
			lastDue = in.due[k]
			if err := c.runStep(ctx, in, st, m, true); err != nil {
				m.fails.Errors++
			}
		}
		if !last {
			continue
		}
		if err := c.drain(ctx); err != nil {
			return nil, err
		}
		if !st.closed {
			m.open = append(m.open, [2]counters{segStart, c.counters()})
		}
	}
	m.backlogMax, m.lagMax = stopSampler()
	publishes := float64(in.publishes[0])
	m.dissem = m.openSum(func(c counters) int64 { return dissemination(c.perType) }) / publishes
	m.wireBytes = m.openSum(func(c counters) int64 { return c.bytes }) / publishes
	m.allocs = m.openSum(func(c counters) int64 { return int64(c.mallocs) }) / publishes
	m.total[1] = c.counters()
	m.check(in, c.ep, due, end)
	for b := range start {
		m.eventsPerS = append(m.eventsPerS, float64(events[b])/end[b].Sub(start[b]).Seconds())
	}
	m.fails.Shed = int(m.total[1].shed - m.total[0].shed)
	m.fails.Parked = int(m.total[1].parked - m.total[0].parked)
	m.attempted = in.expected[0] + in.expected[1]
	if c.standby != nil {
		m.standbyErr = c.standbyDiverged()
	}
	if tr != nil {
		m.layer = layerMetrics(in, m)
	}
	return m, nil
}

// liveHeap collects garbage and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// runStep performs one generator action and, in the open loop, records
// how long it blocked.
func (c *cluster) runStep(ctx context.Context, in *inputs, st step, m *measurement, open bool) error {
	var d float64
	var err error
	switch st.kind {
	case stepPublish:
		res := &collection.BuildResult{Collection: st.ev.Collection, Version: st.ev.BuildVersion, Events: []*event.Event{st.ev}}
		sp := c.tr.begin(kindPublish, "", "", 0)
		start := time.Now()
		_, err = c.svcs[st.server].PublishBuild(ctx, res)
		d = ms(time.Since(start))
		c.tr.finish(sp, -1)
		if open {
			m.publishMS = append(m.publishMS, d)
		}
		return err
	case stepAdd:
		s := in.subs[st.sub]
		c.attach(s)
		d, err = c.subscribe(s)
	default:
		d, err = c.unsubscribe(in.subs[st.sub])
	}
	if open {
		m.subscribeMS = append(m.subscribeMS, d)
	}
	return err
}

// check matches every arrival against the oracle's expected pairs,
// counting misses, duplicates, strangers and per-client order violations.
// It collects the open-loop notify latencies from each event's due time
// and moves each closed-loop batch's end to its last notification.
func (m *measurement) check(in *inputs, ep *endpoint, due, batchEnd []time.Time) {
	got, bad := ep.arrivals()
	m.fails.Errors += bad
	seen := make(map[pairKey]bool, len(in.expect))
	last := make(map[string]int)
	for _, a := range got {
		key := pairKey{a.ev, a.sub}
		step, ok := in.expect[key]
		if !ok || !a.owner {
			m.fails.Unexpected++
			continue
		}
		if seen[key] {
			m.fails.Duplicated++
			continue
		}
		seen[key] = true
		client := in.subs[a.sub].client
		if prev, ok := last[client]; ok && step < prev {
			m.fails.OutOfOrder++
		} else {
			last[client] = step
		}
		at := ep.origin.Add(a.at)
		ev := in.events[a.ev]
		if ev.closed {
			if at.After(batchEnd[ev.batch]) {
				batchEnd[ev.batch] = at
			}
			continue
		}
		lat := ms(at.Sub(due[ev.step]))
		m.notifyMS = append(m.notifyMS, lat)
		if in.subs[a.sub].class == qos.ClassRealtime {
			m.notifyRTMS = append(m.notifyRTMS, lat)
		}
	}
	m.fails.Missed = len(in.expect) - len(seen)
}

// sample polls the delivery backlog and the replication lag every
// millisecond while an open-loop segment runs (traced runs only); the
// returned function stops it, waits for it to exit and returns their
// maxima.
func (c *cluster) sample() (stop func() (backlog, lag int)) {
	if c.tr == nil {
		return func() (int, int) { return 0, 0 }
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	var backlog, lag int
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			if c.tr.phase.Load() != phaseOpen {
				continue
			}
			n := 0
			for _, svc := range c.svcs {
				for _, d := range svc.Delivery().QueueDepths() {
					n += d
				}
			}
			backlog = max(backlog, n)
			if c.primary != nil {
				lag = max(lag, int(c.primary.ReplicaStats().StreamLag))
			}
		}
	}()
	return func() (int, int) {
		close(done)
		wg.Wait()
		return backlog, lag
	}
}
