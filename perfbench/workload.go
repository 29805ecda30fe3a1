package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"time"

	"github.com/gsalert/gsalert/internal/event"
	"github.com/gsalert/gsalert/internal/profile"
	"github.com/gsalert/gsalert/internal/qos"
	"github.com/gsalert/gsalert/internal/sim"
)

// workload fixes the shape of one benchmark scenario. Rates and sizes are
// for --seconds 10 at scale 1; the open-loop rate of each is a quarter or
// less of the workload's closed-loop saturation on a 2-vCPU VM.
type workload struct {
	Name string `json:"name"`
	// Servers is the number of Greenstone servers, GDSNodes the size of the
	// directory tree they register at (root plus children).
	Servers  int `json:"servers"`
	GDSNodes int `json:"gds_nodes"`
	// Collections is the number of collections each server hosts; events
	// rotate over them.
	Collections int `json:"collections"`
	// Profiles is the initial subscriber population (one profile per
	// client), Topics the zipf topic vocabulary.
	Profiles int `json:"profiles"`
	Topics   int `json:"topics"`
	// SuperServers servers (every Servers/SuperServers-th) host a
	// super-collection over another server's collection, so aux forwarding
	// and the transform run.
	SuperServers int `json:"super_servers"`
	// Rate is the open-loop publish rate in events/s.
	Rate float64 `json:"rate_per_s"`
	// ClosedEvents is the number of closed-loop events per 10 s of
	// --seconds, split evenly over the batches.
	ClosedEvents int `json:"closed_events_per_10s"`
	// ChurnPerEvent profile changes (alternating add and remove) are
	// interleaved with every publish.
	ChurnPerEvent int `json:"churn_per_event"`
	// Standby adds a hot standby that every state change streams to.
	Standby bool `json:"standby"`
	// QoS installs an admission controller with quotas above the load.
	QoS bool `json:"qos"`
}

var workloads = map[string]workload{
	"fanout": {
		Name: "fanout", Servers: 1, GDSNodes: 1, Collections: 1,
		Profiles: 20000, Topics: 500,
		Rate: 5, ClosedEvents: 150, QoS: true,
	},
	"flood": {
		Name: "flood", Servers: 16, GDSNodes: 4, Collections: 1,
		Profiles: 2000, Topics: 100, SuperServers: 4,
		Rate: 80, ClosedEvents: 1500, QoS: true,
	},
	"churn-replicated": {
		Name: "churn-replicated", Servers: 1, GDSNodes: 1, Collections: 10,
		Profiles: 5000, Topics: 500,
		Rate: 20, ClosedEvents: 400, ChurnPerEvent: 10, Standby: true,
	},
}

// closedBatches is the number of closed-loop batches; events_per_s is
// their median. The open loop is cut into as many segments, each followed
// by one batch, so the batches sample the whole run: a shared machine's
// speed moves over seconds, and batches run back to back at the end of a
// run all fall into one fast or slow stretch.
const closedBatches = 6

// workloadNames lists the workloads in a fixed order.
var workloadNames = []string{"fanout", "flood", "churn-replicated"}

// scaled shrinks a workload for smoke runs; scale 1 is the benchmark.
func (w workload) scaled(scale float64) workload {
	if scale == 1 {
		return w
	}
	w.Profiles = max(1, int(float64(w.Profiles)*scale))
	w.Topics = max(2, int(float64(w.Topics)*scale))
	w.Rate = math.Max(1, w.Rate*scale)
	w.ClosedEvents = max(1, int(float64(w.ClosedEvents)*scale))
	if w.ChurnPerEvent > 0 {
		w.ChurnPerEvent = max(2, int(float64(w.ChurnPerEvent)*scale))
	}
	return w
}

func serverName(i int) string { return fmt.Sprintf("S%02d", i) }

func collName(j int) string { return fmt.Sprintf("C%d", j) }

// sub is one generated subscriber: a client with one topic profile on
// one collection. The oracle matches events to subs by topic equality.
type sub struct {
	id, client string
	server     int
	coll       string
	topic      int
	class      qos.Class
	prof       *profile.Profile
}

// Step kinds.
const (
	stepPublish = iota
	stepAdd
	stepRemove
)

// step is one generator action: a publish, or a profile add or remove.
type step struct {
	kind   int
	server int
	ev     *event.Event
	evIdx  int32 // publish: index into inputs.events
	sub    int32 // add/remove: index into inputs.subs
	closed bool  // belongs to the closed-loop phase
	batch  int   // the segment: closed batch, or the open stretch before it
}

// evInfo is one event the oracle expects notifications for: a published
// event or the transform of one at a super-collection.
type evInfo struct {
	id     string
	step   int // index of the publishing step (the per-client order key)
	closed bool
	batch  int
}

type pairKey struct{ ev, sub int32 }

// inputs is everything a run feeds the system, generated from the seed
// alone, plus the oracle's expected notifications.
type inputs struct {
	w       workload
	seed    int64
	subs    []*sub
	initial int // subs[:initial] are subscribed at setup
	steps   []step
	// due is, per step, an open-loop step's offset on the open schedule
	// (0 for closed steps): open publish g is due at (g + u) event periods,
	// u uniform in [0, 1), and its profile changes are spread evenly up to
	// the next publish. The jitter keeps an event's phase against the
	// pipeline's periodic flush from being the same for the whole run.
	due      []time.Duration
	events   []evInfo
	eventIdx map[string]int32
	subIdx   map[string]int32
	// superOf maps a sub-collection qname to the super-collection hosted
	// over it; supers lists each hosting server and its sub's host.
	superOf map[string]string
	supers  []superColl
	// expect maps each expected (event, subscriber) pair to its step.
	expect map[pairKey]int
	// expected counts expected notifications in each phase (open,
	// closed).
	expected  [2]int
	publishes [2]int
	changes   int // profile adds + removes in the open phase
	// fingerprint hashes the generated stream and expected pairs.
	fingerprint uint64
}

type superColl struct{ host, subHost int }

// zipfTopics returns n event topics whose histogram follows the zipf
// distribution of sim.LoadGen (s=1.07, v=1) as closely as n allows — the
// i-th of them is the inverse CDF at (i+0.5)/n — and spreads each topic's
// occurrences evenly over the sequence, at a phase drawn from rng. Runs
// therefore publish the same topic mix at the same evenness and differ in
// the interleaving, so a run's work neither swings with how often the
// hottest topic happens to be drawn nor with how closely its events bunch.
func zipfTopics(n, topics int, rng *rand.Rand) []int {
	cdf := make([]float64, topics)
	var sum float64
	for k := 0; k < topics; k++ {
		sum += math.Pow(1+float64(k), -1.07)
		cdf[k] = sum
	}
	count := make([]int, topics)
	k := 0
	for i := 0; i < n; i++ {
		u := (float64(i) + 0.5) / float64(n) * sum
		for k < topics-1 && cdf[k] < u {
			k++
		}
		count[k]++
	}
	type slot struct {
		at    float64
		topic int
	}
	slots := make([]slot, 0, n)
	for t, c := range count {
		phase := rng.Float64()
		for j := 0; j < c; j++ {
			slots = append(slots, slot{(float64(j) + phase) / float64(c), t})
		}
	}
	sort.Slice(slots, func(i, j int) bool {
		if slots[i].at != slots[j].at {
			return slots[i].at < slots[j].at
		}
		return slots[i].topic < slots[j].topic
	})
	out := make([]int, n)
	for i, sl := range slots {
		out[i] = sl.topic
	}
	return out
}

// generate builds a run's inputs from the seed: the population from
// sim.LoadGen's zipf draws, the event topics by zipfTopics, and the
// open- and closed-loop step sequences with their expected notifications.
func generate(w workload, seed int64, seconds int) (*inputs, error) {
	in := &inputs{
		w:        w,
		seed:     seed,
		eventIdx: make(map[string]int32),
		subIdx:   make(map[string]int32),
		superOf:  make(map[string]string),
		expect:   make(map[pairKey]int),
	}
	colls := make([]string, 0, w.Servers*w.Collections+w.SuperServers)
	for i := 0; i < w.Servers; i++ {
		for j := 0; j < w.Collections; j++ {
			colls = append(colls, serverName(i)+"."+collName(j))
		}
	}
	for k := 0; k < w.SuperServers; k++ {
		host := k * w.Servers / w.SuperServers
		subHost := (host + 1 + w.Servers/2) % w.Servers
		in.supers = append(in.supers, superColl{host: host, subHost: subHost})
		super := serverName(host) + ".Super"
		in.superOf[serverName(subHost)+"."+collName(0)] = super
		colls = append(colls, super)
	}
	lg, err := sim.NewLoadGen(sim.LoadConfig{
		Seed: seed, Profiles: w.Profiles, Topics: w.Topics, Collection: colls[0],
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	exprs := make(map[string]profile.Expr)
	newSub := func() *sub {
		i := len(in.subs)
		s := &sub{
			id:     fmt.Sprintf("p%06d", i),
			client: fmt.Sprintf("c%06d", i),
			server: i % w.Servers,
			coll:   colls[0],
			topic:  lg.Topic(),
		}
		if len(colls) > 1 {
			s.coll = colls[rng.Intn(len(colls))]
		}
		// The 1/2/1 realtime/normal/bulk mix of sim.LoadGen.
		s.class = [4]qos.Class{qos.ClassRealtime, qos.ClassNormal, qos.ClassNormal, qos.ClassBulk}[i%4]
		key := s.coll + "|" + sim.TopicName(s.topic)
		expr, ok := exprs[key]
		if !ok {
			expr = profile.MustParse(fmt.Sprintf(`collection = "%s" AND dc.Subject = "%s"`, s.coll, sim.TopicName(s.topic)))
			exprs[key] = expr
		}
		s.prof = profile.NewUser(s.id, s.client, serverName(s.server), expr)
		s.prof.Class = s.class
		in.subIdx[s.id] = int32(i)
		in.subs = append(in.subs, s)
		return s
	}

	// live indexes the subscribed population by (collection, topic); pool
	// lists it for uniform removal picks.
	type ct struct {
		coll  string
		topic int
	}
	live := make(map[ct]map[int32]bool)
	var pool []int32
	poolPos := make(map[int32]int)
	subscribe := func(s *sub) {
		i := in.subIdx[s.id]
		k := ct{s.coll, s.topic}
		if live[k] == nil {
			live[k] = make(map[int32]bool)
		}
		live[k][i] = true
		poolPos[i] = len(pool)
		pool = append(pool, i)
	}
	unsubscribe := func(i int32) {
		s := in.subs[i]
		delete(live[ct{s.coll, s.topic}], i)
		p := poolPos[i]
		last := pool[len(pool)-1]
		pool[p] = last
		poolPos[last] = p
		pool = pool[:len(pool)-1]
		delete(poolPos, i)
	}
	for i := 0; i < w.Profiles; i++ {
		subscribe(newSub())
	}
	in.initial = len(in.subs)

	h := fnv.New64a()
	expectFor := func(evID string, coll string, topic, stepIdx int, closed bool, batch int) {
		idx := int32(len(in.events))
		in.events = append(in.events, evInfo{id: evID, step: stepIdx, closed: closed, batch: batch})
		in.eventIdx[evID] = idx
		phase := 0
		if closed {
			phase = 1
		}
		for si := range live[ct{coll, topic}] {
			in.expect[pairKey{idx, si}] = stepIdx
			in.expected[phase]++
		}
		fmt.Fprintf(h, "%s:%d;", evID, len(live[ct{coll, topic}]))
	}

	base := time.Unix(1_120_000_000, 0)
	nOpen := max(1, int(math.Round(w.Rate*float64(seconds))))
	nClosed := max(1, int(math.Round(float64(w.ClosedEvents)*float64(seconds)/10)))
	// Open segment b, then closed batch b. The open loop's topics are
	// drawn as one stream and cut; every batch has the full topic mix.
	type segment struct {
		topics []int
		closed bool
		batch  int
	}
	openTopics := zipfTopics(nOpen, w.Topics, rng)
	var segments []segment
	for b := 0; b < closedBatches; b++ {
		segments = append(segments,
			segment{topics: openTopics[b*nOpen/closedBatches : (b+1)*nOpen/closedBatches], batch: b},
			segment{topics: zipfTopics(max(1, nClosed/closedBatches), w.Topics, rng), closed: true, batch: b})
	}
	evNo := 0
	for _, sg := range segments {
		closed, batch := sg.closed, sg.batch
		phase := 0
		if closed {
			phase = 1
		}
		for _, topic := range sg.topics {
			server := evNo % w.Servers
			qn := event.QName{Host: serverName(server), Collection: collName(evNo / w.Servers % w.Collections)}
			ev := event.New(fmt.Sprintf("e%06d", evNo), event.TypeDocumentsAdded, qn, evNo+1,
				[]event.DocRef{{
					ID:       fmt.Sprintf("d%06d", evNo),
					Metadata: map[string][]string{"dc.Subject": {sim.TopicName(topic)}},
				}},
				base.Add(time.Duration(evNo)*time.Second))
			stepIdx := len(in.steps)
			evIdx := int32(len(in.events))
			expectFor(ev.ID, qn.String(), topic, stepIdx, closed, batch)
			if super, ok := in.superOf[qn.String()]; ok {
				expectFor(ev.ID+"@"+super, super, topic, stepIdx, closed, batch)
			}
			in.steps = append(in.steps, step{kind: stepPublish, server: server, ev: ev, evIdx: evIdx, closed: closed, batch: batch})
			in.publishes[phase]++
			evNo++
			for c := 0; c < w.ChurnPerEvent; c++ {
				if c%2 == 0 || len(pool) == 0 {
					s := newSub()
					subscribe(s)
					in.steps = append(in.steps, step{kind: stepAdd, server: s.server, sub: in.subIdx[s.id], closed: closed, batch: batch})
				} else {
					victim := pool[rng.Intn(len(pool))]
					unsubscribe(victim)
					in.steps = append(in.steps, step{kind: stepRemove, server: in.subs[victim].server, sub: victim, closed: closed, batch: batch})
				}
				fmt.Fprintf(h, "%d/%d;", in.steps[len(in.steps)-1].kind, in.steps[len(in.steps)-1].sub)
				if !closed {
					in.changes++
				}
			}
		}
	}
	period := float64(time.Second) / w.Rate
	pubAt := make([]float64, in.publishes[0]+1)
	for g := range pubAt {
		pubAt[g] = (float64(g) + rng.Float64()) * period
	}
	in.due = make([]time.Duration, len(in.steps))
	k := 0 // open steps so far
	for i, st := range in.steps {
		if st.closed {
			continue
		}
		g, j := k/(1+w.ChurnPerEvent), k%(1+w.ChurnPerEvent)
		gap := (pubAt[g+1] - pubAt[g]) / float64(1+w.ChurnPerEvent)
		in.due[i] = time.Duration(pubAt[g] + float64(j)*gap)
		k++
	}
	in.fingerprint = h.Sum64()
	return in, nil
}
