// Package gsalert_test holds the benchmark harness regenerating every
// figure-scenario and evaluation claim of the paper (see
// docs/EXPERIMENTS.md for the experiment index and the recorded
// outputs). Run with:
//
//	go test -bench=. -benchmem
//
// The same scenarios are runnable interactively via cmd/alert-bench, which
// prints the result tables.
package gsalert_test

import (
	"context"
	"fmt"
	"io"
	"sort"
	"testing"
	"time"

	"github.com/gsalert/gsalert/internal/collection"
	"github.com/gsalert/gsalert/internal/composite"
	"github.com/gsalert/gsalert/internal/core"
	"github.com/gsalert/gsalert/internal/delivery"
	"github.com/gsalert/gsalert/internal/event"
	"github.com/gsalert/gsalert/internal/filter"
	"github.com/gsalert/gsalert/internal/health"
	"github.com/gsalert/gsalert/internal/logging"
	"github.com/gsalert/gsalert/internal/metrics"
	"github.com/gsalert/gsalert/internal/obs"
	"github.com/gsalert/gsalert/internal/profile"
	"github.com/gsalert/gsalert/internal/qos"
	"github.com/gsalert/gsalert/internal/replica"
	"github.com/gsalert/gsalert/internal/sim"
	"github.com/gsalert/gsalert/internal/trace"
	"github.com/gsalert/gsalert/internal/transport"
)

// ---------------------------------------------------------------------------
// F2 / E2 — GDS broadcast (Figure 2 shape and the scalability sweep).

func benchGDSBroadcast(b *testing.B, servers, branching int) {
	b.Helper()
	c, err := sim.NewCluster(sim.ClusterConfig{Seed: 1, GDSNodes: max(1, servers/8), GDSBranching: branching})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	for i := 0; i < servers; i++ {
		if _, err := c.AddServer(fmt.Sprintf("S%04d", i), -1); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := c.Server("S0000").AddCollection(ctx, collection.Config{Name: "X", Public: true}); err != nil {
		b.Fatal(err)
	}
	docs := []*collection.Document{{ID: "d1", Content: "payload"}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		docs[0].Content = fmt.Sprintf("payload %d", i) // force a diff per build
		if _, _, err := c.Server("S0000").Build(ctx, "X", docs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(c.TR.Stats().Sent)/float64(b.N), "msgs/event")
}

// BenchmarkFigure2Broadcast reproduces Figure 2: a 7-node stratum tree with
// one event flooded from one server to all others.
func BenchmarkFigure2Broadcast(b *testing.B) { benchGDSBroadcast(b, 7, 3) }

// BenchmarkGDSScalability sweeps the tree size (experiment E2).
func BenchmarkGDSScalability(b *testing.B) {
	for _, servers := range []int{10, 50, 100, 250} {
		for _, branching := range []int{2, 4, 8} {
			b.Run(fmt.Sprintf("servers=%d/branching=%d", servers, branching), func(b *testing.B) {
				benchGDSBroadcast(b, servers, branching)
			})
		}
	}
}

// ---------------------------------------------------------------------------
// F3 / E5 — the auxiliary-profile round trip of Figure 3 and deeper chains.

func benchAuxChain(b *testing.B, depth int) {
	b.Helper()
	c, err := sim.NewCluster(sim.ClusterConfig{Seed: 2, GDSNodes: 2, GDSBranching: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	names := make([]string, 0, depth+1)
	for i := 0; i <= depth; i++ {
		name := fmt.Sprintf("H%d", i)
		if _, err := c.AddServer(name, i%2); err != nil {
			b.Fatal(err)
		}
		names = append(names, name)
	}
	for i := 0; i <= depth; i++ {
		cfg := collection.Config{Name: fmt.Sprintf("C%d", i), Public: true}
		if i < depth {
			cfg.Subs = []collection.SubRef{{Host: names[i+1], Name: fmt.Sprintf("C%d", i+1)}}
		}
		if _, err := c.Server(names[i]).AddCollection(ctx, cfg); err != nil {
			b.Fatal(err)
		}
	}
	sink := c.Notifier(names[0], "w")
	if _, err := c.Service(names[0]).Subscribe("w", profile.MustParse(
		`collection = "H0.C0" AND (event.type = "collection-built" OR event.type = "collection-rebuilt")`)); err != nil {
		b.Fatal(err)
	}
	leafColl := fmt.Sprintf("C%d", depth)
	docs := []*collection.Document{{ID: "d1", Content: "x"}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		docs[0].Content = fmt.Sprintf("x %d", i)
		if _, _, err := c.Server(names[depth]).Build(ctx, leafColl, docs); err != nil {
			b.Fatal(err)
		}
	}
	c.Settle(ctx)
	b.StopTimer()
	if sink.Len() != b.N {
		b.Fatalf("watcher notifications = %d, want %d", sink.Len(), b.N)
	}
}

// BenchmarkFigure3AuxRoundTrip reproduces Figure 3: Hamilton.D ⊃ London.E,
// rebuild at London, transformed event notification at Hamilton.
func BenchmarkFigure3AuxRoundTrip(b *testing.B) { benchAuxChain(b, 1) }

// BenchmarkAuxChain sweeps super/sub chain depth (experiment E5).
func BenchmarkAuxChain(b *testing.B) {
	for _, depth := range []int{1, 2, 3, 4, 5} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) { benchAuxChain(b, depth) })
	}
}

// ---------------------------------------------------------------------------
// E1 — build overhead of the filtering step.

// BenchmarkBuildOverhead measures one rebuild+publish with a profile
// population attached (experiment E1); compare against profiles=0.
func BenchmarkBuildOverhead(b *testing.B) {
	for _, docs := range []int{100, 1000} {
		for _, profiles := range []int{0, 100, 1000, 10000} {
			b.Run(fmt.Sprintf("docs=%d/profiles=%d", docs, profiles), func(b *testing.B) {
				c, err := sim.NewCluster(sim.ClusterConfig{Seed: 3, GDSNodes: 1, GDSBranching: 2})
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				ctx := context.Background()
				if _, err := c.AddServer("Host", 0); err != nil {
					b.Fatal(err)
				}
				if _, err := c.Server("Host").AddCollection(ctx, collection.Config{
					Name: "Col", Public: true, IndexFields: []string{"dc.Title", "dc.Creator"},
				}); err != nil {
					b.Fatal(err)
				}
				c.Notifier("Host", "u")
				for i := 0; i < profiles; i++ {
					expr := fmt.Sprintf(`collection = "Host.Col" AND dc.Creator = "Author%d"`, i%100)
					if _, err := c.Service("Host").Subscribe("u", profile.MustParse(expr)); err != nil {
						b.Fatal(err)
					}
				}
				set := make([]*collection.Document, docs)
				for i := range set {
					set[i] = &collection.Document{
						ID: fmt.Sprintf("doc%05d", i),
						Metadata: map[string][]string{
							"dc.Title":   {fmt.Sprintf("Title %d", i)},
							"dc.Creator": {fmt.Sprintf("Author%d", i%100)},
						},
						Content: fmt.Sprintf("body %d words here", i),
					}
				}
				b.ResetTimer()
				var prevVersion int
				for i := 0; i < b.N; i++ {
					set[0].Content = fmt.Sprintf("body changed %d", i)
					res, _, err := c.Server("Host").Build(ctx, "Col", set)
					if err != nil {
						b.Fatal(err)
					}
					// Guard the invariants the measurement rests on: each
					// iteration is one monotonically-versioned incremental
					// rebuild diffing exactly the one mutated document (the
					// first build ingests the whole set). If the differ ever
					// regresses to full re-adds, the profile-matching cost
					// being measured silently changes shape.
					if res.Version != prevVersion+1 {
						b.Fatalf("build %d: version %d after %d", i, res.Version, prevVersion)
					}
					prevVersion = res.Version
					added, changed := len(res.Added), len(res.Changed)
					if len(res.Removed) != 0 {
						b.Fatalf("build %d removed %d documents", i, len(res.Removed))
					}
					if i == 0 {
						if added != docs || changed != 0 {
							b.Fatalf("initial build diffed %d added/%d changed, want %d/0", added, changed, docs)
						}
					} else if added != 0 || changed != 1 {
						b.Fatalf("build %d diffed %d added/%d changed, want 0/1", i, added, changed)
					}
					if len(res.Events) == 0 {
						b.Fatalf("build %d produced no events", i)
					}
				}
			})
		}
	}
}

// ---------------------------------------------------------------------------
// E3 — routing comparison.

// BenchmarkRoutingComparison runs the four routers through the fragmented-
// network scenario (experiment E3); correctness is asserted in the sim
// package tests, this benchmark tracks cost.
func BenchmarkRoutingComparison(b *testing.B) {
	for _, frag := range []float64{0, 0.3, 0.6, 0.9} {
		b.Run(fmt.Sprintf("fragmentation=%0.1f", frag), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sim.RunRoutingComparison(64, frag, int64(i+1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E4 — filter engines (the §5 equality-preferred algorithm vs naive scan).

func benchFilterEngine(b *testing.B, mk func() filter.Matcher, profiles int) {
	b.Helper()
	m := mk()
	for i := 0; i < profiles; i++ {
		expr := fmt.Sprintf(`collection = "H.C%d" AND dc.Creator = "Author%d"`, i%50, i%500)
		p := profile.NewUser(fmt.Sprintf("p%06d", i), "u", "H", profile.MustParse(expr))
		if err := m.Add(p); err != nil {
			b.Fatal(err)
		}
	}
	events := make([]*event.Event, 32)
	for i := range events {
		events[i] = event.New(fmt.Sprintf("e%d", i), event.TypeDocumentsAdded,
			event.QName{Host: "H", Collection: fmt.Sprintf("C%d", i%50)}, 1,
			[]event.DocRef{{
				ID: fmt.Sprintf("d%d", i),
				Metadata: map[string][]string{
					"dc.Creator": {fmt.Sprintf("Author%d", i%500)},
					"dc.Title":   {"some title"},
				},
			}}, eventTime())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Match(events[i%len(events)])
	}
}

// BenchmarkFilterMatching sweeps profile counts over both engines
// (experiment E4).
func BenchmarkFilterMatching(b *testing.B) {
	for _, profiles := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("naive/profiles=%d", profiles), func(b *testing.B) {
			benchFilterEngine(b, func() filter.Matcher { return filter.NewNaive() }, profiles)
		})
		b.Run(fmt.Sprintf("eqpref/profiles=%d", profiles), func(b *testing.B) {
			benchFilterEngine(b, func() filter.Matcher { return filter.NewEqualityPreferred() }, profiles)
		})
	}
}

// ---------------------------------------------------------------------------
// E6 — partition recovery.

// BenchmarkPartitionRecovery cycles partition/rebuild/heal/flush
// (experiment E6).
func BenchmarkPartitionRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := sim.RunPartitionRecovery(3, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if r.DuringPartition != 0 || r.AfterHeal != 3 {
			b.Fatalf("recovery broken: %+v", r)
		}
	}
}

// ---------------------------------------------------------------------------
// E7 — lossy flooding.

// BenchmarkLossyBroadcast measures best-effort delivery under loss
// (experiment E7).
func BenchmarkLossyBroadcast(b *testing.B) {
	for _, p := range []float64{0, 0.05, 0.2} {
		b.Run(fmt.Sprintf("drop=%0.2f", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sim.RunLossyBroadcast(16, 4, p, int64(i+1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E9 — dissemination ablation.

// BenchmarkMulticastAblation compares broadcast and interest-scoped
// multicast dissemination at different interest levels (experiment E9).
func BenchmarkMulticastAblation(b *testing.B) {
	for _, interested := range []int{1, 8, 31} {
		for _, mode := range []struct {
			name string
			m    core.RoutingMode
		}{{"broadcast", core.RouteBroadcast}, {"multicast", core.RouteMulticast}} {
			b.Run(fmt.Sprintf("%s/interested=%d", mode.name, interested), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					r, err := sim.RunMulticastAblation(32, interested, 5, mode.m, int64(i+1))
					if err != nil {
						b.Fatal(err)
					}
					if i == 0 {
						b.ReportMetric(float64(r.Messages)/float64(r.Events), "msgs/event")
					}
				}
			})
		}
	}
}

// ---------------------------------------------------------------------------
// E12 — the dissemination ladder: flood vs multicast vs content routing.

// BenchmarkRoutingModes runs the E12 workload (rebuilds emitting several
// event types, a minority of servers interested in one of them) through
// all three dissemination modes, reporting per-round message cost
// (experiment E12; see docs/ROUTING.md for the modes).
func BenchmarkRoutingModes(b *testing.B) {
	const (
		servers    = 12
		interested = 3
		rounds     = 4
	)
	for _, mode := range []core.RoutingMode{core.RouteBroadcast, core.RouteMulticast, core.RouteContent} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := sim.RunContentRouting(servers, interested, rounds, mode, int64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				if r.Notifications != interested*rounds {
					b.Fatalf("%s delivered %d notifications, want %d", mode, r.Notifications, interested*rounds)
				}
				if i == 0 {
					b.ReportMetric(float64(r.Messages)/float64(rounds), "msgs/round")
					b.ReportMetric(float64(r.AvgLatency.Microseconds()), "latency-µs")
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E8 — continuous search / watch-this.

// BenchmarkWatchThis measures end-to-end watch-this alerting on rebuilds
// (experiment E8).
func BenchmarkWatchThis(b *testing.B) {
	c, err := sim.NewCluster(sim.ClusterConfig{Seed: 4, GDSNodes: 1, GDSBranching: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if _, err := c.AddServer("Host", 0); err != nil {
		b.Fatal(err)
	}
	if _, err := c.Server("Host").AddCollection(ctx, collection.Config{Name: "Col", Public: true}); err != nil {
		b.Fatal(err)
	}
	c.Notifier("Host", "w")
	coll := event.QName{Host: "Host", Collection: "Col"}
	if _, err := c.Service("Host").WatchDocuments("w", coll, []string{"doc00001"}); err != nil {
		b.Fatal(err)
	}
	set := make([]*collection.Document, 500)
	for i := range set {
		set[i] = &collection.Document{ID: fmt.Sprintf("doc%05d", i), Content: "body"}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set[1].Content = fmt.Sprintf("body %d", i)
		if _, _, err := c.Server("Host").Build(ctx, "Col", set); err != nil {
			b.Fatal(err)
		}
	}
}

func eventTime() time.Time { return time.Unix(1117584000, 0) } // 2005-06-01

// ---------------------------------------------------------------------------
// E11 — notification delivery: synchronous fan-out vs the sharded pipeline.

// benchDelivery reuses the E11 harness (sim.RunDeliveryThroughput): a
// simulated 20µs-per-call + 500ns-per-notification transport cost — the
// shape batching amortises. shards == 0 is the seed's synchronous design:
// one blocking sink call per notification on the match path.
func benchDelivery(b *testing.B, shards int) {
	b.Helper()
	const (
		clients = 32
		perCall = 20 * time.Microsecond
		perItem = 500 * time.Nanosecond
	)
	b.ResetTimer()
	r, err := sim.RunDeliveryThroughput(b.N, clients, shards, perCall, perItem)
	if err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(r.PerSecond, "notifs/sec")
}

// BenchmarkDeliverySharding compares the synchronous notifier baseline with
// the pipeline at 1, 4 and 16 shards (experiment E11; the acceptance sweep
// of the delivery subsystem).
func BenchmarkDeliverySharding(b *testing.B) {
	b.Run("sync", func(b *testing.B) { benchDelivery(b, 0) })
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("pipeline/shards=%d", shards), func(b *testing.B) { benchDelivery(b, shards) })
	}
}

// ---------------------------------------------------------------------------
// E13 — composite-engine throughput and window-GC cost.

// newCompositeBenchEngine builds an engine holding `live` open sequence
// instances spread over live/1000 three-step windowed sequence profiles
// (1000 open instances per profile, which is also the per-profile cap).
func newCompositeBenchEngine(b *testing.B, live int) (*composite.Engine, []string, *event.Event) {
	b.Helper()
	const perDef = 1000
	defs := live / perDef
	if defs < 1 {
		defs = 1
	}
	e := composite.NewEngine(composite.Config{MaxInstances: perDef, Emit: func(composite.Firing) {}})
	c := profile.MustParseComposite(`SEQUENCE (a = "1") THEN (b = "2") THEN (c = "3") WITHIN 1h`)
	ids := make([]string, defs)
	for i := range ids {
		ids[i] = fmt.Sprintf("bench-comp-%d", i)
		p, err := profile.NewComposite(ids[i], "u", "H", c)
		if err != nil {
			b.Fatal(err)
		}
		if err := e.Register(p, eventTime()); err != nil {
			b.Fatal(err)
		}
	}
	ev := event.New("bench-ev", event.TypeDocumentsAdded,
		event.QName{Host: "H", Collection: "C"}, 1, nil, eventTime())
	for i := 0; i < live; i++ {
		e.OnPrimitive(ids[i%defs], 0, ev, nil, eventTime())
	}
	if got := e.Stats().LiveInstances; got != int64(defs*perDef) {
		b.Fatalf("live instances = %d, want %d", got, defs*perDef)
	}
	return e, ids, ev
}

// BenchmarkCompositeEngine measures the composite engine at 10k, 100k and
// 1M live sequence instances (experiment E13): "ingest" is the state-
// machine throughput of step-0 matches (O(1) opens at the instance cap),
// "gc" is one full window-garbage-collection sweep (Tick) over every live
// instance.
func BenchmarkCompositeEngine(b *testing.B) {
	for _, live := range []int{10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("instances=%d/ingest", live), func(b *testing.B) {
			e, ids, ev := newCompositeBenchEngine(b, live)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.OnPrimitive(ids[i%len(ids)], 0, ev, nil, eventTime())
			}
		})
		b.Run(fmt.Sprintf("instances=%d/gc", live), func(b *testing.B) {
			e, _, _ := newCompositeBenchEngine(b, live)
			// Tick inside the window: a full sweep that expires nothing,
			// the steady-state GC cost.
			at := eventTime().Add(30 * time.Minute)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Tick(at)
			}
			b.StopTimer()
			if got := e.Stats().LiveInstances; got < int64(live) {
				b.Fatalf("GC dropped live instances: %d", got)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E14 — replication overhead and failover.

// benchReplication measures the publish→match→deliver path of one server
// with `profiles` matching profiles, with and without a standby consuming
// the synchronous replication stream (experiment E14). The delta is the
// steady-state cost of zero-loss replication: one stream round-trip per
// dedup admission, mailbox append and delivery ack.
func benchReplication(b *testing.B, profiles int, replicated bool) {
	b.Helper()
	ctx := context.Background()
	tr := transport.NewMemory(11)
	defer tr.Close()
	mkSvc := func(addr string) *core.Service {
		svc, err := core.New(core.Config{ServerName: "P", ServerAddr: addr, Transport: tr})
		if err != nil {
			b.Fatal(err)
		}
		return svc
	}
	primary := mkSvc("gs://p")
	defer primary.Close()
	for i := 0; i < profiles; i++ {
		if _, err := primary.Subscribe("u", profile.MustParse(
			fmt.Sprintf(`collection = "P.C" AND dc.Creator = "Author%d"`, i))); err != nil {
			b.Fatal(err)
		}
	}
	primary.RegisterNotifier("u", core.NotifierFunc(func(core.Notification) {}))
	if replicated {
		standby := mkSvc("gs://pb")
		defer standby.Close()
		prim, err := replica.NewPrimary(replica.PrimaryConfig{
			Service: primary, Transport: tr, ListenAddr: "repl://p",
		})
		if err != nil {
			b.Fatal(err)
		}
		defer prim.Close()
		recv, err := replica.NewStandby(replica.StandbyConfig{
			Service: standby, Transport: tr,
			ListenAddr: "repl://pb", PrimaryAddr: "repl://p",
		})
		if err != nil {
			b.Fatal(err)
		}
		defer recv.Close()
		if err := recv.Join(ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := event.New(fmt.Sprintf("bench-repl-%d", i), event.TypeDocumentsAdded,
			event.QName{Host: "P", Collection: "C"}, 1,
			[]event.DocRef{{
				ID:       fmt.Sprintf("d%d", i),
				Metadata: map[string][]string{"dc.Creator": {fmt.Sprintf("Author%d", i%max(1, profiles))}},
			}}, eventTime())
		if _, err := primary.PublishBuild(ctx, &collection.BuildResult{Events: []*event.Event{ev}}); err != nil {
			b.Fatal(err)
		}
	}
	if err := primary.DrainDeliveries(ctx); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkReplication compares an unreplicated server against one
// streaming every state change to a standby (experiment E14's steady-state
// overhead measurement).
func BenchmarkReplication(b *testing.B) {
	for _, profiles := range []int{100, 1000} {
		b.Run(fmt.Sprintf("unreplicated/profiles=%d", profiles), func(b *testing.B) {
			benchReplication(b, profiles, false)
		})
		b.Run(fmt.Sprintf("replicated/profiles=%d", profiles), func(b *testing.B) {
			benchReplication(b, profiles, true)
		})
	}
}

// BenchmarkDeliveryDurable measures the WAL write amplification of durable
// mailboxes: enqueue+deliver with the write-ahead log on.
func BenchmarkDeliveryDurable(b *testing.B) {
	dir := b.TempDir()
	p, err := delivery.NewPipeline(delivery.Config{
		Shards:        4,
		QueueDepth:    4096,
		BatchSize:     64,
		FlushInterval: time.Millisecond,
		Dir:           dir,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	p.Attach("u", func(_ string, _ []delivery.Notification) error { return nil })
	ev := event.New("bench-ev", event.TypeDocumentsChanged,
		event.QName{Host: "H", Collection: "C"}, 1, nil, eventTime())
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Enqueue(delivery.Notification{Client: "u", ProfileID: "p", Event: ev, At: eventTime()}); err != nil {
			b.Fatal(err)
		}
	}
	if err := p.Drain(ctx); err != nil {
		b.Fatal(err)
	}
}

// ---------------------------------------------------------------------------
// E15 — QoS scheduling hot path.

// benchQoSScheduling measures the delivery pipeline's enqueue→WFQ-dequeue→
// flush path: `classes` picks how many priority classes the workload mixes
// (1 = everything normal, the pre-QoS shape; 3 = realtime/normal/bulk
// round-robin through per-class queues and the deficit scheduler). The
// delta between the two is the WFQ hot-path cost (experiment E15).
func benchQoSScheduling(b *testing.B, classes, clients int) {
	b.Helper()
	p, err := delivery.NewPipeline(delivery.Config{
		Shards:        4,
		QueueDepth:    4096,
		BatchSize:     64,
		FlushInterval: time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < clients; i++ {
		p.Attach(fmt.Sprintf("u%d", i), func(_ string, _ []delivery.Notification) error { return nil })
	}
	classRing := []qos.Class{qos.ClassNormal, qos.ClassRealtime, qos.ClassBulk}
	ev := event.New("bench-qos-ev", event.TypeDocumentsChanged,
		event.QName{Host: "H", Collection: "C"}, 1, nil, eventTime())
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := delivery.Notification{
			Client:    fmt.Sprintf("u%d", i%clients),
			ProfileID: "p",
			Event:     ev,
			Class:     classRing[i%classes],
			At:        eventTime(),
		}
		if err := p.Enqueue(n); err != nil {
			b.Fatal(err)
		}
	}
	if err := p.Drain(ctx); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if got := p.Metrics().Delivered.Value(); got < int64(b.N) {
		b.Fatalf("delivered %d of %d", got, b.N)
	}
}

// ---------------------------------------------------------------------------
// E16 — scale & chaos soak.

// BenchmarkChaosSoak runs the E16 soak at benchmark scale (a reduced
// population; the acceptance-scale runs live in the sim tests and
// cmd/loadgen) and records the per-class p99 delivery latency and message
// cost alongside wall time. The invariant check runs every iteration: a
// soak that loses alerts is not a number worth recording.
func BenchmarkChaosSoak(b *testing.B) {
	for _, profiles := range []int{5_000, 20_000} {
		b.Run(fmt.Sprintf("profiles=%d", profiles), func(b *testing.B) {
			var last *sim.ChaosSoakResult
			for i := 0; i < b.N; i++ {
				cfg := sim.DefaultChaosSoakConfig(int64(i + 1))
				cfg.Load.Profiles = profiles
				r, err := sim.RunChaosSoak(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := r.Check(); err != nil {
					b.Fatal(err)
				}
				last = r
			}
			b.ReportMetric(float64(last.Messages)/float64(last.Events), "msgs/event")
			for _, s := range last.SLO {
				b.ReportMetric(float64(s.P99.Microseconds())/1e3, s.Class+"-p99-ms")
			}
		})
	}
}

// BenchmarkQoSScheduling records the WFQ scheduling cost on the delivery
// hot path (experiment E15): single-class traffic against a three-class
// mix, at 8 and 64 clients.
func BenchmarkQoSScheduling(b *testing.B) {
	for _, clients := range []int{8, 64} {
		for _, classes := range []int{1, 3} {
			b.Run(fmt.Sprintf("classes=%d/clients=%d", classes, clients), func(b *testing.B) {
				benchQoSScheduling(b, classes, clients)
			})
		}
	}
}

// ---------------------------------------------------------------------------
// E17 — tracing overhead on the publish path.

// benchTracePublish measures the publish→match→deliver path of one server
// under a tracer configuration: nil (tracing off), installed with sampling
// disabled (the always-on production default — one timed root per publish,
// nothing recorded), and head-sampling at 1% and 100%.
func benchTracePublish(b *testing.B, mkTracer func() *trace.Tracer) {
	b.Helper()
	tr := transport.NewMemory(6)
	defer tr.Close()
	svc, err := core.New(core.Config{
		ServerName: "P", ServerAddr: "gs://p", Transport: tr, Tracer: mkTracer(),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	if _, err := svc.Subscribe("u", profile.MustParse(`collection = "P.C"`)); err != nil {
		b.Fatal(err)
	}
	svc.RegisterNotifier("u", core.NotifierFunc(func(core.Notification) {}))
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := event.New(fmt.Sprintf("bench-trace-%d", i), event.TypeDocumentsAdded,
			event.QName{Host: "P", Collection: "C"}, 1, nil, eventTime())
		if _, err := svc.PublishBuild(ctx, &collection.BuildResult{Events: []*event.Event{ev}}); err != nil {
			b.Fatal(err)
		}
	}
	if err := svc.DrainDeliveries(ctx); err != nil {
		b.Fatal(err)
	}
}

// traceBenchConfigs are BenchmarkTraceOverhead's tracer configurations,
// using the production-default collector capacity (the ring's pointer
// slots are GC-scanned, so an oversized ring would tax every
// configuration with scan work no deployment pays).
var traceBenchConfigs = []struct {
	name string
	mk   func() *trace.Tracer
}{
	{"off", func() *trace.Tracer { return nil }},
	{"sample=0", func() *trace.Tracer {
		return trace.New(trace.Config{Service: "P", SampleRate: 0, Seed: 9, Collector: trace.NewCollector(trace.DefaultCapacity)})
	}},
	{"sample=0.01", func() *trace.Tracer {
		return trace.New(trace.Config{Service: "P", SampleRate: 0.01, Seed: 9, Collector: trace.NewCollector(trace.DefaultCapacity)})
	}},
	{"sample=1", func() *trace.Tracer {
		return trace.New(trace.Config{Service: "P", SampleRate: 1, Seed: 9, Collector: trace.NewCollector(trace.DefaultCapacity)})
	}},
}

// BenchmarkTraceOverhead compares the publish path with tracing off,
// installed-but-unsampled, 1%-sampled and fully sampled (experiment E17).
// The off vs sample=0 delta is the always-on cost every deployment pays;
// the acceptance bar holds it within 2% (asserted by
// TestTraceDisabledOverhead).
func BenchmarkTraceOverhead(b *testing.B) {
	for _, tc := range traceBenchConfigs {
		b.Run(tc.name, func(b *testing.B) { benchTracePublish(b, tc.mk) })
	}
}

// TestTraceDisabledOverhead is the E17 acceptance assertion: a tracer
// installed with sampling disabled costs the publish path nothing in
// allocations and at most 2% in time versus no tracer at all.
func TestTraceDisabledOverhead(t *testing.T) {
	overheadGate(t, "sampling-disabled tracer", func(c *core.Config) {
		c.Tracer = traceBenchConfigs[1].mk()
	})
}

// overheadGate pins a disabled plane against its absence on the
// publish→match→deliver path of one server. Two long-lived harnesses
// publish the same event stream: "off" with no plane, "disabled" with
// install applied to its config.
//
//   - Exact gate: allocations per publish (deterministic) are equal.
//   - Wall-clock gate: the median per-publish time of the disabled side is
//     within 2% of off's plus a 150 ns floor for timer granularity. The
//     two harnesses run many short blocks strictly interleaved, the one
//     going first alternating, so machine drift, GC and the other side's
//     background delivery work land on both alike; the medians shed the
//     blocks a preemption or GC cycle hit. The allocation gate covers what
//     a median cannot see (garbage paid for at collection time). With
//     both harnesses plane-free the comparison must pass (A/A).
func overheadGate(t *testing.T, plane string, install func(*core.Config)) {
	t.Helper()
	if raceEnabled {
		t.Skip("race-detector instrumentation (and its sync.Pool randomisation) swamps both gates; run without -race")
	}
	const (
		blocks    = 500
		block     = 16
		floorNs   = 150.0
		tolerance = 1.02
	)
	ctx := context.Background()
	type harness struct {
		svc  *core.Service
		seq  int
		name string
	}
	setup := func(name string, install func(*core.Config)) *harness {
		tr := transport.NewMemory(6)
		t.Cleanup(func() { tr.Close() })
		cfg := core.Config{ServerName: name, ServerAddr: "gs://" + name, Transport: tr}
		install(&cfg)
		svc, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { svc.Close() })
		if _, err := svc.Subscribe("u", profile.MustParse(`collection = "`+name+`.C"`)); err != nil {
			t.Fatal(err)
		}
		svc.RegisterNotifier("u", core.NotifierFunc(func(core.Notification) {}))
		return &harness{svc: svc, name: name}
	}
	publish := func(h *harness) {
		h.seq++
		ev := event.New(fmt.Sprintf("ovh-%s-%d", h.name, h.seq), event.TypeDocumentsAdded,
			event.QName{Host: h.name, Collection: "C"}, 1, nil, eventTime())
		if _, err := h.svc.PublishBuild(ctx, &collection.BuildResult{Events: []*event.Event{ev}}); err != nil {
			t.Fatal(err)
		}
	}
	drain := func(h *harness) {
		if err := h.svc.DrainDeliveries(ctx); err != nil {
			t.Fatal(err)
		}
	}
	off := setup("P", func(*core.Config) {})
	disabled := setup("Q", install)

	allocs := func(h *harness) float64 {
		return testing.AllocsPerRun(200, func() { publish(h); drain(h) })
	}
	offAllocs, disAllocs := allocs(off), allocs(disabled)
	t.Logf("allocs per publish: off %.0f, %s %.0f", offAllocs, plane, disAllocs)
	if disAllocs != offAllocs {
		t.Errorf("%s allocates %.0f per publish, off %.0f: a disabled plane must allocate nothing", plane, disAllocs, offAllocs)
	}

	if testing.Short() {
		t.Skip("wall-clock comparison skipped in -short mode")
	}
	runBlock := func(h *harness) float64 {
		start := time.Now()
		for i := 0; i < block; i++ {
			publish(h)
		}
		return float64(time.Since(start).Nanoseconds()) / block
	}
	median := func(xs []float64) float64 {
		sort.Float64s(xs)
		return xs[len(xs)/2]
	}
	for i := 0; i < blocks/10; i++ { // warm-up both paths before measuring
		runBlock(off)
		runBlock(disabled)
	}
	offNs, disNs := make([]float64, 0, blocks), make([]float64, 0, blocks)
	for i := 0; i < blocks; i++ {
		if i%2 == 0 {
			offNs = append(offNs, runBlock(off))
			disNs = append(disNs, runBlock(disabled))
		} else {
			disNs = append(disNs, runBlock(disabled))
			offNs = append(offNs, runBlock(off))
		}
	}
	drain(off)
	drain(disabled)
	offMed, disMed := median(offNs), median(disNs)
	limit := offMed*tolerance + floorNs
	t.Logf("publish path medians: off %.0fns/op, %s %.0fns/op (limit %.0f)", offMed, plane, disMed, limit)
	if disMed > limit {
		t.Errorf("%s publish path %.0fns/op exceeds off %.0fns/op by more than 2%%", plane, disMed, offMed)
	}
}

// benchQoSAdmission measures the publish→match→deliver path of one server
// with an admission controller installed vs none: the per-match cost of the
// token-bucket checks (experiment E15). Quotas are set high enough that
// nothing is actually shed — this is the fast-path overhead.
func BenchmarkQoSAdmission(b *testing.B) {
	for _, enabled := range []bool{false, true} {
		name := "off"
		if enabled {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			tr := transport.NewMemory(5)
			defer tr.Close()
			cfg := core.Config{ServerName: "P", ServerAddr: "gs://p", Transport: tr}
			if enabled {
				cfg.QoS = qos.NewController(qos.Config{
					SubscriberRate: 1e9, SubscriberBurst: 1 << 30,
					CollectionRate: 1e9, CollectionBurst: 1 << 30,
				})
			}
			svc, err := core.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer svc.Close()
			if _, err := svc.Subscribe("u", profile.MustParse(`collection = "P.C"`)); err != nil {
				b.Fatal(err)
			}
			svc.RegisterNotifier("u", core.NotifierFunc(func(core.Notification) {}))
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := event.New(fmt.Sprintf("bench-qos-adm-%d", i), event.TypeDocumentsAdded,
					event.QName{Host: "P", Collection: "C"}, 1, nil, eventTime())
				if _, err := svc.PublishBuild(ctx, &collection.BuildResult{Events: []*event.Event{ev}}); err != nil {
					b.Fatal(err)
				}
			}
			if err := svc.DrainDeliveries(ctx); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E18 — health-plane rule evaluation at scrape cadence.

// BenchmarkHealthEval measures one engine tick — snapshot the registry,
// evaluate every rule, step the state machines — against a fully
// registered catalog (service + delivery + QoS), for the built-in default
// rule set and a 100-rule synthetic set. The tick runs at scrape cadence
// (seconds), so anything in the microseconds is free; this pins it there.
func BenchmarkHealthEval(b *testing.B) {
	mkSrc := func(b *testing.B) (*obs.Registry, func()) {
		b.Helper()
		tr := transport.NewMemory(5)
		ctrl := qos.NewController(qos.Config{
			SubscriberRate: 1e9, SubscriberBurst: 1 << 30,
		})
		svc, err := core.New(core.Config{
			ServerName: "P", ServerAddr: "gs://p", Transport: tr, QoS: ctrl,
		})
		if err != nil {
			b.Fatal(err)
		}
		reg := obs.NewRegistry()
		obs.RegisterService(reg, svc.Stats)
		obs.RegisterDelivery(reg, svc.Delivery())
		obs.RegisterQoS(reg, ctrl)
		return reg, func() { svc.Close(); tr.Close() }
	}
	bench := func(b *testing.B, rs *health.RuleSet) {
		b.Helper()
		reg, done := mkSrc(b)
		defer done()
		now := time.Unix(1_700_000_000, 0)
		eng := health.NewEngine(reg, rs, health.Options{Clock: func() time.Time { return now }})
		defer eng.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			now = now.Add(time.Second)
			eng.TickAt(now)
		}
	}
	b.Run("rules=default", func(b *testing.B) { bench(b, health.DefaultRules()) })
	b.Run("rules=100", func(b *testing.B) {
		var sb []byte
		for i := 0; i < 100; i++ {
			sb = append(sb, fmt.Sprintf(`
rule r%d {
	component = c%d
	severity = warning
	expr = gsalert_delivery_queue_depth > %d
}`, i, i%8, i)...)
		}
		rs, err := health.ParseRules(string(sb))
		if err != nil {
			b.Fatal(err)
		}
		bench(b, rs)
	})
}

// ---------------------------------------------------------------------------
// E19 — structured logging & flight recorder.

// BenchmarkLogRecord prices one log call in the three postures that matter:
// "disabled" (the record is below the effective level — the always-on cost
// every call site pays), "ring" (emitted into the lock-free flight ring
// with no sink attached — the production default), and "sink" (ring plus a
// rendered logfmt line on an io.Discard writer — the stderr-shaped cost
// without terminal I/O noise).
func BenchmarkLogRecord(b *testing.B) {
	run := func(b *testing.B, lg *logging.Logger, lvl logging.Level) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if lvl == logging.LevelDebug {
				lg.Debug("delivery flushed", logging.String("client", "u1"), logging.Int("batch", 32))
			} else {
				lg.Info("delivery flushed", logging.String("client", "u1"), logging.Int("batch", 32))
			}
		}
	}
	b.Run("disabled", func(b *testing.B) {
		rec := logging.NewRecorder(logging.Config{Level: logging.LevelInfo})
		run(b, rec.For("delivery"), logging.LevelDebug)
	})
	b.Run("ring", func(b *testing.B) {
		rec := logging.NewRecorder(logging.Config{Level: logging.LevelInfo})
		run(b, rec.For("delivery"), logging.LevelInfo)
	})
	b.Run("sink", func(b *testing.B) {
		rec := logging.NewRecorder(logging.Config{Level: logging.LevelInfo, Sink: io.Discard})
		run(b, rec.For("delivery"), logging.LevelInfo)
	})
}

// BenchmarkExemplarObserve prices the exemplar-carrying histogram observe
// against the plain one: the delivery pipeline calls ObserveExemplar for
// sampled notifications and Observe otherwise, so the delta is what
// trace-correlated latency buckets cost on the sampled path.
func BenchmarkExemplarObserve(b *testing.B) {
	b.Run("observe", func(b *testing.B) {
		var h metrics.LatencyHistogram
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Observe(3 * time.Millisecond)
		}
	})
	b.Run("exemplar", func(b *testing.B) {
		var h metrics.LatencyHistogram
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.ObserveExemplar(3*time.Millisecond, "0af7651916cd43dd8448eb211c80319c")
		}
	})
}

// TestLogDisabledOverhead is the E19 acceptance assertion, the logging
// twin of TestTraceDisabledOverhead: a structured logger installed with
// the publish-path sites below the effective level costs the publish path
// nothing in allocations and at most 2% in time versus no logger at all.
func TestLogDisabledOverhead(t *testing.T) {
	// The installed logger sits at info; every publish-path site logs at
	// debug, so the measured cost is the level gate alone — the posture
	// every production deployment runs in.
	rec := logging.NewRecorder(logging.Config{Level: logging.LevelInfo})
	overheadGate(t, "below-level logger", func(c *core.Config) { c.Log = rec.For("core") })
}
