package trace

import (
	"sort"
	"sync/atomic"
	"time"

	"github.com/gsalert/gsalert/internal/ring"
)

// SpanRecord is one finished span as stored in the collector and served
// from /traces.
type SpanRecord struct {
	TraceID       string `json:"trace_id"`
	SpanID        string `json:"span_id"`
	ParentID      string `json:"parent_id,omitempty"`
	Name          string `json:"name"`
	Service       string `json:"service,omitempty"`
	Class         string `json:"class,omitempty"`
	StartUnixNano int64  `json:"start_unix_nano"`
	DurationNanos int64  `json:"duration_ns"`
	Attrs         []Attr `json:"attrs,omitempty"`
	// Retained marks a tail-retained slow root that head sampling had
	// passed over.
	Retained bool `json:"retained,omitempty"`
}

// Start returns the span's start time.
func (r *SpanRecord) Start() time.Time { return time.Unix(0, r.StartUnixNano) }

// Duration returns the span's duration.
func (r *SpanRecord) Duration() time.Duration { return time.Duration(r.DurationNanos) }

// End returns the span's end time.
func (r *SpanRecord) End() time.Time { return time.Unix(0, r.StartUnixNano+r.DurationNanos) }

// DefaultCapacity is the collector's span capacity when NewCollector is
// given zero: enough for a few thousand recent traces at ~6 spans each.
const DefaultCapacity = 16384

// Collector is a lock-free sharded ring buffer of finished spans: bounded
// memory, drop-oldest. Writers pick a shard from the span ID; an
// overwritten slot bumps the dropped counter. Snapshot walks the slots with
// atomic loads — a reader never blocks a writer.
type Collector struct {
	spans   ring.Sharded[SpanRecord]
	total   atomic.Int64
	dropped atomic.Int64
}

// NewCollector builds a collector holding about capacity spans (rounded up
// to a multiple of the shard count; <= 0 selects DefaultCapacity).
func NewCollector(capacity int) *Collector {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	c := &Collector{}
	c.spans.Init(capacity)
	return c
}

// add stores one finished span, dropping the oldest record in its shard
// when the ring is full. spanID selects the shard.
func (c *Collector) add(r *SpanRecord, spanID uint64) {
	if c.spans.Add(r, spanID) {
		c.dropped.Add(1)
	}
	c.total.Add(1)
}

// SpansTotal reports spans recorded since construction.
func (c *Collector) SpansTotal() int64 { return c.total.Load() }

// Dropped reports spans overwritten before they were ever snapshotted out.
func (c *Collector) Dropped() int64 { return c.dropped.Load() }

// Occupancy reports the number of spans currently held in the ring.
func (c *Collector) Occupancy() int64 { return c.spans.Occupancy() }

// Capacity reports the ring's span capacity.
func (c *Collector) Capacity() int { return c.spans.Capacity() }

// Snapshot copies out every span currently in the ring, in no particular
// order. Records are shared, not copied: callers must treat them as
// read-only.
func (c *Collector) Snapshot() []*SpanRecord { return c.spans.Snapshot() }

// TraceIDs returns the IDs of the traces currently assembled from the
// ring — the index a flight-recorder bundle records. A nil collector
// (tracing off) has none.
func (c *Collector) TraceIDs() []string {
	if c == nil {
		return nil
	}
	traces := c.Traces(Filter{})
	ids := make([]string, 0, len(traces))
	for _, t := range traces {
		ids = append(ids, t.TraceID)
	}
	return ids
}

// Trace is one assembled span tree.
type Trace struct {
	TraceID       string `json:"trace_id"`
	StartUnixNano int64  `json:"start_unix_nano"`
	// DurationNanos spans the earliest start to the latest end across the
	// trace's spans — the end-to-end latency when the tree is complete.
	DurationNanos int64 `json:"duration_ns"`
	// Complete reports that a root span (no parent) is present.
	Complete bool `json:"complete"`
	// Spans is sorted by start time, root first among equals.
	Spans []*SpanRecord `json:"spans"`
}

// Duration returns the trace's end-to-end duration.
func (t *Trace) Duration() time.Duration { return time.Duration(t.DurationNanos) }

// Root returns the trace's root span (nil when incomplete).
func (t *Trace) Root() *SpanRecord {
	for _, s := range t.Spans {
		if s.ParentID == "" {
			return s
		}
	}
	return nil
}

// Assemble groups spans by trace ID into span trees, most recent trace
// first.
func Assemble(spans []*SpanRecord) []*Trace {
	byTrace := make(map[string]*Trace)
	for _, s := range spans {
		t := byTrace[s.TraceID]
		if t == nil {
			t = &Trace{TraceID: s.TraceID}
			byTrace[s.TraceID] = t
		}
		t.Spans = append(t.Spans, s)
	}
	out := make([]*Trace, 0, len(byTrace))
	for _, t := range byTrace {
		sort.Slice(t.Spans, func(i, j int) bool {
			a, b := t.Spans[i], t.Spans[j]
			if a.StartUnixNano != b.StartUnixNano {
				return a.StartUnixNano < b.StartUnixNano
			}
			return a.ParentID < b.ParentID // roots ("") first among equals
		})
		start := t.Spans[0].StartUnixNano
		end := start
		for _, s := range t.Spans {
			if e := s.StartUnixNano + s.DurationNanos; e > end {
				end = e
			}
			if s.ParentID == "" {
				t.Complete = true
			}
		}
		t.StartUnixNano = start
		t.DurationNanos = end - start
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].StartUnixNano > out[j].StartUnixNano })
	return out
}

// Filter narrows a /traces query.
type Filter struct {
	// MinDuration keeps only traces at least this long end to end.
	MinDuration time.Duration
	// Class keeps only traces containing a span of this QoS class.
	Class string
	// Stage keeps only traces containing a span with this stage name.
	Stage string
	// Limit caps the result count (0 = unlimited), applied after the
	// most-recent-first sort.
	Limit int
}

// Traces snapshots the ring and returns assembled traces matching f.
func (c *Collector) Traces(f Filter) []*Trace {
	all := Assemble(c.Snapshot())
	out := all[:0]
	for _, t := range all {
		if t.DurationNanos < int64(f.MinDuration) {
			continue
		}
		if f.Class != "" && !hasClass(t, f.Class) {
			continue
		}
		if f.Stage != "" && !hasStage(t, f.Stage) {
			continue
		}
		out = append(out, t)
		if f.Limit > 0 && len(out) >= f.Limit {
			break
		}
	}
	return out
}

func hasClass(t *Trace, class string) bool {
	for _, s := range t.Spans {
		if s.Class == class {
			return true
		}
	}
	return false
}

func hasStage(t *Trace, stage string) bool {
	for _, s := range t.Spans {
		if s.Name == stage {
			return true
		}
	}
	return false
}

// PathSample is the per-stage breakdown of one delivered notification: the
// chain from a terminal span (StageNotify) up its parent links to the
// root. Time between successive chain spans' starts is attributed to the
// earlier span's stage and the terminal's own duration to its stage, so
// the stage durations sum EXACTLY to E2E — the property the E16
// attribution table's "within 10%" acceptance check verifies end to end
// (slack only from clock skew across processes; a simulation shares one).
type PathSample struct {
	Class string
	// E2E is root start → terminal end.
	E2E time.Duration
	// Stages maps stage name → attributed duration along this chain.
	Stages map[string]time.Duration
}

// PathSamples walks every terminal-stage span of every complete trace up
// to its root and returns one attribution sample per resolvable chain.
// Chains with a broken parent link (a span already overwritten in the
// ring) are skipped rather than misattributed.
func PathSamples(traces []*Trace, terminal string) []PathSample {
	var out []PathSample
	for _, t := range traces {
		if !t.Complete {
			continue
		}
		byID := make(map[string]*SpanRecord, len(t.Spans))
		for _, s := range t.Spans {
			byID[s.SpanID] = s
		}
		for _, leaf := range t.Spans {
			if leaf.Name != terminal {
				continue
			}
			chain := []*SpanRecord{leaf}
			ok := true
			for cur := leaf; cur.ParentID != ""; {
				next, found := byID[cur.ParentID]
				if !found || len(chain) > len(t.Spans) {
					ok = false
					break
				}
				chain = append(chain, next)
				cur = next
			}
			if !ok {
				continue
			}
			// chain is leaf → root; attribute in root → leaf order.
			sample := PathSample{Stages: make(map[string]time.Duration, len(chain))}
			for i := len(chain) - 1; i >= 0; i-- {
				s := chain[i]
				if s.Class != "" {
					sample.Class = s.Class
				}
				var d time.Duration
				if i == 0 {
					d = s.Duration()
				} else {
					d = time.Duration(chain[i-1].StartUnixNano - s.StartUnixNano)
				}
				if d < 0 {
					d = 0
				}
				sample.Stages[s.Name] += d
			}
			root := chain[len(chain)-1]
			sample.E2E = time.Duration(leaf.StartUnixNano + leaf.DurationNanos - root.StartUnixNano)
			if sample.E2E < 0 {
				continue
			}
			out = append(out, sample)
		}
	}
	return out
}
