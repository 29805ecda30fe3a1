package main

import (
	"bytes"
	"context"
	"slices"
	"sync"
	"time"

	"github.com/gsalert/gsalert/internal/protocol"
)

// arrival is one notification as the client endpoint received it, resolved
// against the generated inputs: ev and sub index inputs.events and
// inputs.subs (-1 when the ID is unknown), owner tells whether the item was
// addressed to the profile's owner, and at is the arrival time relative to
// the endpoint's origin.
type arrival struct {
	ev, sub int32
	owner   bool
	at      time.Duration
}

// endpoint is the benchmark-owned client: every RemoteNotifier pushes its
// gs.notify-batch envelopes here. It stamps the arrival time on entry and
// keeps a compact, pointer-free record per notification, so the harness
// neither costs the delivery path much nor grows the heap the collector
// has to scan.
type endpoint struct {
	in     *inputs
	origin time.Time

	mu  sync.Mutex
	got []arrival
	bad int // envelopes that are not well-formed notification batches
}

func newEndpoint(in *inputs) *endpoint {
	return &endpoint{in: in, origin: time.Now()}
}

func (e *endpoint) Handle(_ context.Context, env *protocol.Envelope) (*protocol.Envelope, error) {
	at := time.Since(e.origin)
	batch, ok := e.parse(env)
	e.mu.Lock()
	defer e.mu.Unlock()
	if !ok {
		e.bad++
		return nil, nil
	}
	for i := range batch {
		batch[i].at = at
	}
	e.got = append(e.got, batch...)
	return nil, nil
}

// reserve makes room for n more records.
func (e *endpoint) reserve(n int) {
	e.mu.Lock()
	e.got = slices.Grow(e.got, n)
	e.mu.Unlock()
}

// arrivals returns what has arrived so far, in arrival order, and the
// number of malformed envelopes.
func (e *endpoint) arrivals() ([]arrival, int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.got, e.bad
}

// parse reads the client, profile ID and event ID of every item of a
// gs.notify-batch body and resolves them against the inputs. It scans the
// bytes for the elements it needs instead of running encoding/xml over
// every event.
func (e *endpoint) parse(env *protocol.Envelope) ([]arrival, bool) {
	if env.Header.Type != protocol.MsgNotifyBatch {
		return nil, false
	}
	body := env.Body.Inner
	var out []arrival
	for {
		item, rest, found := tagNotify.cut(body)
		if !found {
			break
		}
		body = rest
		client, _, ok1 := tagClient.cut(item)
		prof, _, ok2 := tagProfile.cut(item)
		ev, _, ok3 := tagEvent.cut(item)
		id, _, ok4 := tagID.cut(ev)
		if !ok1 || !ok2 || !ok3 || !ok4 {
			return nil, false
		}
		a := arrival{ev: -1, sub: -1}
		if i, ok := e.in.eventIdx[string(id)]; ok {
			a.ev = i
		}
		if i, ok := e.in.subIdx[string(prof)]; ok {
			a.sub = i
			a.owner = e.in.subs[i].client == string(client)
		}
		out = append(out, a)
	}
	return out, len(out) > 0
}

// tag is an XML element's open and close markup.
type tag struct{ open, end []byte }

func newTag(name string) tag { return tag{[]byte("<" + name + ">"), []byte("</" + name + ">")} }

var (
	tagNotify  = newTag("Notify")
	tagClient  = newTag("Client")
	tagProfile = newTag("ProfileID")
	tagEvent   = newTag("Event")
	tagID      = newTag("ID")
)

// cut returns the content of the first such element in b and what
// follows it.
func (t tag) cut(b []byte) (content, rest []byte, found bool) {
	i := bytes.Index(b, t.open)
	if i < 0 {
		return nil, b, false
	}
	b = b[i+len(t.open):]
	j := bytes.Index(b, t.end)
	if j < 0 {
		return nil, b, false
	}
	return b[:j], b[j+len(t.end):], true
}
