package main

import (
	"bufio"
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/gsalert/gsalert/internal/core"
	"github.com/gsalert/gsalert/internal/event"
	"github.com/gsalert/gsalert/internal/filter"
	"github.com/gsalert/gsalert/internal/profile"
	"github.com/gsalert/gsalert/internal/protocol"
	"github.com/gsalert/gsalert/internal/transport"
)

// Span kinds, recorded around the calls the benchmark makes into each
// layer or that the layers make through the benchmark's wrappers.
const (
	kindPublish     = "publish"     // Service.PublishBuild, generator
	kindSubscribe   = "subscribe"   // Service.SubscribeProfile, generator
	kindUnsubscribe = "unsubscribe" // Service.Unsubscribe, generator
	kindMatch       = "match"       // filter.Matcher.Match
	kindAdd         = "filter.add"  // filter.Matcher.Add
	kindRemove      = "filter.remove"
	kindSend        = "send"   // transport.Transport.Send
	kindRecv        = "recv"   // a handler bound with Listen
	kindNotify      = "notify" // core.RemoteNotifier.NotifyBatch
)

// Phases a span is tagged with.
const (
	phaseSetup = iota
	phaseOpen
	phaseClosed
)

var phaseNames = [...]string{"setup", "open", "closed"}

// span is one timed call. Parent is the span that was open on the
// generator goroutine when a generator-side span started (-1 for a root
// and for every span on another goroutine); n carries a count whose
// meaning depends on the kind (matches, batch items, body bytes).
type span struct {
	kind   string
	role   string // recv/send: address scheme of the endpoint ("gs", "gds", "repl", "client")
	typ    protocol.MessageType
	parent int32
	onGen  bool
	phase  int8
	start  int64 // ns since the tracer's origin
	end    int64
	n      int64
}

// tracer keeps spans in memory. Every call the generator makes runs
// synchronously on its goroutine down through the memory transport, so
// nesting on that goroutine is a stack; delivery workers run concurrently
// and their spans are roots. The generator is told apart by the OS thread
// it is locked to while the tracer is bound (see bind).
type tracer struct {
	origin time.Time
	phase  atomic.Int32
	genTid int

	mu       sync.Mutex
	spans    []span
	genStack []int32
	// dwell holds the open loop's notification dwell samples in ms, from
	// the notification's At stamp to the benchmark's notifier.
	dwell []float64
}

// setPhase tags the spans that start from now on.
func (t *tracer) setPhase(p int) {
	if t != nil {
		t.phase.Store(int32(p))
	}
}

func newTracer() *tracer {
	return &tracer{origin: time.Now()}
}

// bind locks the calling goroutine, the generator, to its OS thread and
// records the thread, so that a span can tell from one gettid call
// whether it runs on the generator; the returned function unlocks it.
func (t *tracer) bind() (unbind func()) {
	if t == nil {
		return func() {}
	}
	runtime.LockOSThread()
	t.genTid = syscall.Gettid()
	return runtime.UnlockOSThread
}

// begin opens a span; a nil tracer records nothing.
func (t *tracer) begin(kind, role string, typ protocol.MessageType, n int64) int32 {
	if t == nil {
		return -1
	}
	onGen := syscall.Gettid() == t.genTid
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := int32(-1)
	if onGen && len(t.genStack) > 0 {
		parent = t.genStack[len(t.genStack)-1]
	}
	idx := int32(len(t.spans))
	t.spans = append(t.spans, span{
		kind: kind, role: role, typ: typ, parent: parent, onGen: onGen,
		phase: int8(t.phase.Load()), start: now, n: n,
	})
	if onGen {
		t.genStack = append(t.genStack, idx)
	}
	return idx
}

// finish closes span idx, optionally updating its count.
func (t *tracer) finish(idx int32, n int64) {
	if t == nil {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &t.spans[idx]
	sp.end = now
	if n >= 0 {
		sp.n = n
	}
	if sp.onGen {
		t.genStack = t.genStack[:len(t.genStack)-1]
	}
}

func (t *tracer) addDwell(d []float64) {
	if t.phase.Load() != phaseOpen {
		return
	}
	t.mu.Lock()
	t.dwell = append(t.dwell, d...)
	t.mu.Unlock()
}

// writeSpans writes every span as one JSON object per line, gzipped.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		f.Close()
		return err
	}
	w := bufio.NewWriter(zw)
	for i, sp := range t.spans {
		name := sp.kind
		if sp.role != "" {
			name += ":" + sp.role + ":" + string(sp.typ)
		}
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d,"generator":%t,"n":%d,"phase":%q}`+"\n",
			i, sp.parent, name, sp.start, sp.end, sp.onGen, sp.n, phaseNames[sp.phase])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// addrRole returns the scheme of a transport address ("gs://S00" → "gs").
func addrRole(addr string) string {
	if i := strings.Index(addr, "://"); i > 0 {
		return addr[:i]
	}
	return addr
}

// tracedTransport times every Send and, through the handlers it wraps at
// Listen, every receive.
type tracedTransport struct {
	inner transport.Transport
	tr    *tracer
}

func (t *tracedTransport) Listen(addr string, h transport.Handler) (io.Closer, error) {
	role := addrRole(addr)
	return t.inner.Listen(addr, transport.HandlerFunc(func(ctx context.Context, env *protocol.Envelope) (*protocol.Envelope, error) {
		sp := t.tr.begin(kindRecv, role, env.Header.Type, int64(len(env.Body.Inner)))
		resp, err := h.Handle(ctx, env)
		t.tr.finish(sp, -1)
		return resp, err
	}))
}

func (t *tracedTransport) Send(ctx context.Context, addr string, env *protocol.Envelope) (*protocol.Envelope, error) {
	sp := t.tr.begin(kindSend, addrRole(addr), env.Header.Type, int64(len(env.Body.Inner)))
	resp, err := t.inner.Send(ctx, addr, env)
	t.tr.finish(sp, -1)
	return resp, err
}

func (t *tracedTransport) Close() error { return t.inner.Close() }

// tracedMatcher times the service's filter.Matcher calls; a span's count
// is the number of matches returned.
type tracedMatcher struct {
	filter.Matcher
	tr *tracer
}

func (m *tracedMatcher) Match(ev *event.Event) []filter.Match {
	sp := m.tr.begin(kindMatch, "", "", 0)
	out := m.Matcher.Match(ev)
	m.tr.finish(sp, int64(len(out)))
	return out
}

func (m *tracedMatcher) Add(p *profile.Profile) error {
	sp := m.tr.begin(kindAdd, "", "", 0)
	err := m.Matcher.Add(p)
	m.tr.finish(sp, -1)
	return err
}

func (m *tracedMatcher) Remove(id string) bool {
	sp := m.tr.begin(kindRemove, "", "", 0)
	ok := m.Matcher.Remove(id)
	m.tr.finish(sp, -1)
	return ok
}

// tracedNotifier records each notification's dwell in the delivery
// pipeline on entry and times the RemoteNotifier batch call; a span's
// count is the batch size.
type tracedNotifier struct {
	inner *core.RemoteNotifier
	tr    *tracer
}

func (n *tracedNotifier) Notify(x core.Notification) { _ = n.NotifyBatch([]core.Notification{x}) }

func (n *tracedNotifier) NotifyBatch(ns []core.Notification) error {
	now := time.Now()
	dwell := make([]float64, len(ns))
	for i, x := range ns {
		dwell[i] = ms(now.Sub(x.At))
	}
	n.tr.addDwell(dwell)
	sp := n.tr.begin(kindNotify, "", "", int64(len(ns)))
	err := n.inner.NotifyBatch(ns)
	n.tr.finish(sp, -1)
	return err
}
