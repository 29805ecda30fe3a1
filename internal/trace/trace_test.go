package trace

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/gsalert/gsalert/internal/ring"
)

func testTracer(t *testing.T, rate float64, slow time.Duration, capacity int) *Tracer {
	t.Helper()
	return New(Config{
		Service:    "test",
		SampleRate: rate,
		SlowRoot:   slow,
		Seed:       42,
		Collector:  NewCollector(capacity),
	})
}

func TestContextWireRoundTrip(t *testing.T) {
	tr := testTracer(t, 1, 0, 0)
	root := tr.StartRoot(StagePublish)
	ctx := root.Context()
	if !ctx.Sampled() {
		t.Fatalf("rate-1 root not sampled")
	}
	wire := ctx.String()
	back, ok := Parse(wire)
	if !ok || back != ctx {
		t.Fatalf("round trip %q -> %+v (ok=%v), want %+v", wire, back, ok, ctx)
	}
	if len(ctx.TraceID()) != 32 || len(ctx.SpanID()) != 16 {
		t.Fatalf("ID widths: trace %q span %q", ctx.TraceID(), ctx.SpanID())
	}
}

func TestParseEmptyAndMalformed(t *testing.T) {
	if c, ok := Parse(""); !ok || c.Valid() {
		t.Fatalf("empty string must parse to the zero context, got %+v ok=%v", c, ok)
	}
	for _, bad := range []string{
		"00-zz-11-01",
		"01-0123456789abcdef0123456789abcdef-0123456789abcdef-01",
		"00-0123456789abcdef0123456789abcdef-0123456789abcdef-02",
		"00-00000000000000000000000000000000-0000000000000000-01",
		"garbage",
	} {
		if _, ok := Parse(bad); ok {
			t.Errorf("Parse(%q) accepted malformed input", bad)
		}
	}
}

func TestHeadSamplingDeterministicAndProportional(t *testing.T) {
	a := testTracer(t, 0.5, 0, 1<<16)
	b := testTracer(t, 0.5, 0, 1<<16)
	const n = 4096
	sampled := 0
	for i := 0; i < n; i++ {
		sa := a.StartRoot(StagePublish)
		sb := b.StartRoot(StagePublish)
		if sa.Recording() != sb.Recording() {
			t.Fatalf("same seed diverged at root %d", i)
		}
		if sa.Recording() {
			sampled++
		}
	}
	if sampled < n/4 || sampled > 3*n/4 {
		t.Fatalf("rate-0.5 sampled %d of %d", sampled, n)
	}
	off := testTracer(t, 0, 0, 64)
	if s := off.StartRoot(StagePublish); s.Recording() {
		t.Fatalf("rate-0 root is recording")
	}
}

func TestNilTracerNoOps(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatalf("nil tracer enabled")
	}
	s := tr.StartRoot(StagePublish)
	s.SetAttr("k", "v")
	s.SetClass("normal")
	s.Finish()
	c := tr.StartChild(s.Context(), StageMatch)
	c.Finish()
	if tr.Record(Context{}, StageFlush, time.Time{}, 0, "") != (Context{}) {
		t.Fatalf("nil tracer recorded")
	}
}

func TestTailRetainKeepsSlowRoots(t *testing.T) {
	now := time.Unix(1_120_000_000, 0)
	clock := func() time.Time { return now }
	col := NewCollector(64)
	tr := New(Config{Service: "t", SampleRate: 0, SlowRoot: 10 * time.Millisecond, Seed: 7, Collector: col, Clock: clock})

	fast := tr.StartRoot(StagePublish)
	now = now.Add(time.Millisecond)
	fast.Finish()
	if got := col.SpansTotal(); got != 0 {
		t.Fatalf("fast unsampled root recorded: %d spans", got)
	}

	slow := tr.StartRoot(StagePublish)
	now = now.Add(50 * time.Millisecond)
	slow.Finish()
	snap := col.Snapshot()
	if len(snap) != 1 || !snap[0].Retained || snap[0].Name != StagePublish {
		t.Fatalf("slow root not tail-retained: %+v", snap)
	}
}

func TestCollectorDropOldest(t *testing.T) {
	col := NewCollector(ring.Shards) // one slot per shard
	tr := New(Config{SampleRate: 1, Seed: 3, Collector: col})
	for i := 0; i < 4*ring.Shards; i++ {
		s := tr.StartRoot(StagePublish)
		s.Finish()
	}
	if got := col.SpansTotal(); got != 4*ring.Shards {
		t.Fatalf("SpansTotal = %d", got)
	}
	if occ := col.Occupancy(); occ > int64(col.Capacity()) {
		t.Fatalf("occupancy %d exceeds capacity %d", occ, col.Capacity())
	}
	if col.Dropped() == 0 {
		t.Fatalf("overwriting a full ring reported no drops")
	}
	if n := len(col.Snapshot()); n > col.Capacity() {
		t.Fatalf("snapshot %d exceeds capacity", n)
	}
}

func TestCollectorConcurrentAddSnapshot(t *testing.T) {
	col := NewCollector(256)
	tr := New(Config{SampleRate: 1, Seed: 11, Collector: col})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s := tr.StartRoot(StagePublish)
				c := tr.StartChild(s.Context(), StageMatch)
				c.Finish()
				s.Finish()
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			col.Snapshot()
			col.Traces(Filter{Limit: 10})
		}
	}()
	wg.Wait()
	<-done
	if col.SpansTotal() != 8000 {
		t.Fatalf("SpansTotal = %d, want 8000", col.SpansTotal())
	}
}

func TestAssembleAndFilters(t *testing.T) {
	now := time.Unix(1_120_000_000, 0)
	clock := func() time.Time { return now }
	col := NewCollector(256)
	tr := New(Config{Service: "s", SampleRate: 1, Seed: 5, Collector: col, Clock: clock})

	root := tr.StartRoot(StagePublish)
	now = now.Add(time.Millisecond)
	match := tr.StartChild(root.Context(), StageMatch)
	now = now.Add(2 * time.Millisecond)
	match.SetClass("bulk")
	match.Finish()
	now = now.Add(time.Millisecond)
	root.Finish()

	traces := col.Traces(Filter{})
	if len(traces) != 1 {
		t.Fatalf("got %d traces", len(traces))
	}
	tc := traces[0]
	if !tc.Complete || len(tc.Spans) != 2 || tc.Root() == nil {
		t.Fatalf("assembled trace malformed: %+v", tc)
	}
	if tc.Duration() != 4*time.Millisecond {
		t.Fatalf("trace duration = %v, want 4ms", tc.Duration())
	}
	if got := col.Traces(Filter{MinDuration: 10 * time.Millisecond}); len(got) != 0 {
		t.Fatalf("min-duration filter leaked %d traces", len(got))
	}
	if got := col.Traces(Filter{Class: "bulk"}); len(got) != 1 {
		t.Fatalf("class filter dropped the trace")
	}
	if got := col.Traces(Filter{Class: "realtime"}); len(got) != 0 {
		t.Fatalf("class filter leaked %d traces", len(got))
	}
	if got := col.Traces(Filter{Stage: StageMatch}); len(got) != 1 {
		t.Fatalf("stage filter dropped the trace")
	}
	if got := col.Traces(Filter{Stage: StageFlush}); len(got) != 0 {
		t.Fatalf("stage filter leaked %d traces", len(got))
	}
}

// TestPathSamplesSumExactly pins the attribution invariant: stage durations
// along a notify chain sum exactly to the end-to-end latency.
func TestPathSamplesSumExactly(t *testing.T) {
	now := time.Unix(1_120_000_000, 0)
	clock := func() time.Time { return now }
	col := NewCollector(256)
	tr := New(Config{Service: "s", SampleRate: 1, Seed: 9, Collector: col, Clock: clock})

	root := tr.StartRoot(StagePublish)
	now = now.Add(1 * time.Millisecond)
	match := tr.StartChild(root.Context(), StageMatch)
	now = now.Add(2 * time.Millisecond)
	match.Finish()
	qos := tr.StartChild(match.Context(), StageQoS)
	qos.SetClass("normal")
	now = now.Add(1 * time.Millisecond)
	qos.Finish()
	qw := tr.StartChild(qos.Context(), StageQueueWait)
	now = now.Add(8 * time.Millisecond)
	qw.Finish()
	root.Finish()
	flushStart := now
	now = now.Add(3 * time.Millisecond)
	fctx := tr.Record(qw.Context(), StageFlush, flushStart, now.Sub(flushStart), "normal")
	tr.Record(fctx, StageNotify, flushStart.Add(time.Millisecond), 2*time.Millisecond, "normal")

	samples := PathSamples(col.Traces(Filter{}), StageNotify)
	if len(samples) != 1 {
		t.Fatalf("got %d samples", len(samples))
	}
	s := samples[0]
	if s.Class != "normal" {
		t.Fatalf("class = %q", s.Class)
	}
	var sum time.Duration
	for _, d := range s.Stages {
		sum += d
	}
	if sum != s.E2E {
		t.Fatalf("stage sum %v != e2e %v (stages %v)", sum, s.E2E, s.Stages)
	}
	// notify ended at flushStart+3ms; root started 12ms earlier.
	if want := 15 * time.Millisecond; s.E2E != want {
		t.Fatalf("e2e = %v, want %v", s.E2E, want)
	}
	for _, stage := range []string{StagePublish, StageMatch, StageQoS, StageQueueWait, StageFlush, StageNotify} {
		if _, ok := s.Stages[stage]; !ok {
			t.Errorf("stage %s missing from breakdown %v", stage, s.Stages)
		}
	}
}

func TestPathSamplesSkipsBrokenChains(t *testing.T) {
	leaf := &SpanRecord{TraceID: "t1", SpanID: "aa", ParentID: "missing", Name: StageNotify, DurationNanos: 10}
	root := &SpanRecord{TraceID: "t1", SpanID: "bb", Name: StagePublish, DurationNanos: 5}
	traces := Assemble([]*SpanRecord{leaf, root})
	if got := PathSamples(traces, StageNotify); len(got) != 0 {
		t.Fatalf("broken chain produced %d samples", len(got))
	}
}

func TestRecordChains(t *testing.T) {
	col := NewCollector(64)
	tr := New(Config{Service: "s", SampleRate: 1, Seed: 13, Collector: col})
	root := tr.StartRoot(StagePublish)
	base := time.Unix(1_120_000_000, 0)
	fctx := tr.Record(root.Context(), StageFlush, base, time.Millisecond, "bulk", Attr{Key: "batch", Value: "3"})
	if !fctx.Sampled() {
		t.Fatalf("Record returned unsampled context")
	}
	nctx := tr.Record(fctx, StageNotify, base, time.Millisecond, "bulk")
	if nctx.TraceID() != root.Context().TraceID() {
		t.Fatalf("Record changed trace ID")
	}
	var flush *SpanRecord
	for _, s := range col.Snapshot() {
		if s.Name == StageFlush {
			flush = s
		}
	}
	if flush == nil || flush.Class != "bulk" || len(flush.Attrs) != 1 || flush.Attrs[0].Key != "batch" {
		t.Fatalf("flush record malformed: %+v", flush)
	}
	if flush.ParentID != root.Context().SpanID() {
		t.Fatalf("flush parent %q != root span %q", flush.ParentID, root.Context().SpanID())
	}
}

func TestTraceIDsUnique(t *testing.T) {
	tr := testTracer(t, 1, 0, 1<<14)
	seen := make(map[string]bool)
	for i := 0; i < 2000; i++ {
		ctx := tr.StartRoot(StagePublish).Context()
		id := ctx.TraceID()
		if seen[id] {
			t.Fatalf("duplicate trace ID %s at %d", id, i)
		}
		seen[id] = true
	}
}

func TestSpanAttrsAndRetainedJSONShape(t *testing.T) {
	// Compile-time-ish guard that stage constants stay distinct.
	stages := []string{StagePublish, StageRouteHop, StageMatch, StageComposite,
		StageQoS, StageQueueWait, StageFlush, StageNotify, StageReplApply}
	seen := map[string]bool{}
	for _, s := range stages {
		if seen[s] {
			t.Fatalf("duplicate stage constant %q", s)
		}
		seen[s] = true
	}
	if fmt.Sprint(len(stages)) != "9" {
		t.Fatalf("stage constants: %d", len(stages))
	}
}
