package sim

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/gsalert/gsalert/internal/chaos"
	"github.com/gsalert/gsalert/internal/collection"
	"github.com/gsalert/gsalert/internal/core"
	"github.com/gsalert/gsalert/internal/delivery"
	"github.com/gsalert/gsalert/internal/event"
	"github.com/gsalert/gsalert/internal/health"
	"github.com/gsalert/gsalert/internal/logging"
	"github.com/gsalert/gsalert/internal/metrics"
	"github.com/gsalert/gsalert/internal/obs"
	"github.com/gsalert/gsalert/internal/profile"
	"github.com/gsalert/gsalert/internal/qos"
	"github.com/gsalert/gsalert/internal/replica"
	"github.com/gsalert/gsalert/internal/trace"
	"github.com/gsalert/gsalert/internal/transport"
)

// E16 — scale & chaos soak. A zipfian subscriber population (100k–1M
// profiles, mixed primitive/composite, QoS-classed) is spread across the
// tree while a publisher drives rounds of zipf-topic events. A chaos
// schedule runs against the workload: the replicated server's standby is
// degraded and healed, a directory subtree is partitioned and healed, the
// replicated primary is killed and its standby promoted, dissemination
// modes flip mid-run, and latency is injected into the alerting traffic.
// The run is repeated with an empty schedule (the failure-free baseline)
// and the PR 4/5 invariants must survive the composition:
//
//   - realtime is loss-free: the realtime subscribers' delivered multisets
//     are identical to the baseline, through the kill and the partitions;
//   - normal is deferred-not-lost: over-quota traffic parks durably
//     (inherited across the promotion) and the final count equals the
//     event count;
//   - promotion is zero-loss: the killed server's clients see the same
//     multiset the baseline run delivered, pre-kill + post-promote;
//   - bulk coalesces exactly once: the shed events arrive as one digest;
//   - nothing in any pipeline counts as dropped (actual loss is zero).
//
// Per-class delivery-latency SLOs are evaluated cluster-wide through
// merged metrics.LatencyHistogram buckets. The three observed servers
// (publisher, QoS-observed, replicated) are pinned to the root directory
// node, so partition faults may cut any directory link without
// disconnecting the invariant-bearing paths — everything else is ballast
// and takes the faults (paper §6: flooding is best-effort).

// The well-known soak roles. Ballast servers fill out the tree.
const (
	// SoakPublisher publishes every round's events.
	SoakPublisher = "C000"
	// SoakQoSServer hosts the rt/nm/blk observed subscribers (E15's cast)
	// behind burst-only quotas. It is never killed: bulk-digest engine
	// state is not replicated (docs/REPLICATION.md), so digest-exactly-once
	// is asserted where the engine survives.
	SoakQoSServer = "C001"
	// SoakReplServer is the replicated server (E14's cast): an attached
	// realtime client and a detached normal client whose parked alerts must
	// survive the promotion.
	SoakReplServer = "C002"
)

// ChaosSoakConfig shapes an E16 run.
type ChaosSoakConfig struct {
	// Servers is the tree size; Rounds×EventsPerRound the publish volume.
	Servers, Rounds, EventsPerRound int
	// Burst is the per-subscriber burst-only quota on the observed servers.
	Burst int
	// Seed drives the cluster, the population and the injected faults.
	Seed int64
	// Mode is the initial dissemination mode (flips may change it).
	Mode core.RoutingMode
	// Load shapes the ballast population (Collection is filled in).
	Load LoadConfig
	// Schedule is the chaos to apply; the baseline run ignores it.
	Schedule chaos.Schedule
	// SLO bounds per-class p99 delivery latency (sanity bounds: latencies
	// are wall-clock and include parked dwell time).
	SLO map[qos.Class]time.Duration
	// TraceSample head-samples end-to-end event traces at this rate in
	// (0,1]; the chaos run's traced notify chains produce the per-stage
	// latency attribution table. 0 disables tracing.
	TraceSample float64
	// Health attaches an internal/health engine to the QoS server's
	// registry, ticked on a virtual clock each round plus a quiet tail, so
	// the soak observes at least one rule fire→clear cycle (the chaos-soak
	// CI gate). 0-cost when false.
	Health bool
	// FlightRecorder (E19) additionally threads a shared structured-logging
	// recorder through every subsystem — core services, delivery pipelines,
	// directory nodes, the replica standby and the health engine — on the
	// same virtual clock, arms a logging.FlightRecorder over its rings, and
	// registers the standby's stats with the health registry so the
	// soak-promotion critical rule can observe the kill-primary fault. The
	// resulting critical transition auto-captures a post-mortem bundle.
	// Implies Health.
	FlightRecorder bool
}

// soakHealthRules is the rule set the soak's health engine evaluates: the
// burst-only quota guarantees deferrals once the subscriber budget is
// spent, so the deferred rate rises mid-run and drains to zero over the
// quiet tail — a deterministic fire→clear cycle.
const soakHealthRules = `
rule soak-deferred-rate {
	component = qos
	severity = warning
	expr = rate(gsalert_qos_deferred_total[30s]) > 0.05
}
`

// soakHealthTick is the virtual time each soak round (and each quiet tail
// tick) advances the health clock by.
const soakHealthTick = 10 * time.Second

// DefaultChaosSoakConfig is the acceptance-bar configuration: 16 servers,
// 100k live profiles, 12 rounds, and a schedule exercising the full fault
// vocabulary.
func DefaultChaosSoakConfig(seed int64) ChaosSoakConfig {
	return ChaosSoakConfig{
		Servers:        16,
		Rounds:         12,
		EventsPerRound: 4,
		Burst:          8,
		Seed:           seed,
		Mode:           core.RouteBroadcast,
		Load: LoadConfig{
			Seed:              seed,
			Profiles:          100_000,
			Topics:            500,
			CompositeFraction: 0.02,
		},
		Schedule: DefaultSoakSchedule(12, "gds3"),
		SLO: map[qos.Class]time.Duration{
			qos.ClassRealtime: 30 * time.Second,
			qos.ClassNormal:   5 * time.Minute,
			qos.ClassBulk:     10 * time.Minute,
		},
	}
}

// DefaultSoakSchedule is the canonical E16 schedule, scaled to the round
// count (positions are fractions of the 12-round template): degrade the
// standby, cut a directory subtree off at cutLink (a GDS node id, e.g.
// "gds3" — the link to its parent is severed), heal both, kill the
// replicated primary, inject alerting-path latency, flip modes.
func DefaultSoakSchedule(rounds int, cutNode string) chaos.Schedule {
	at := func(template int) int { return template * rounds / 12 }
	var s chaos.Schedule
	s.Add(chaos.Fault{At: at(1), Kind: chaos.KindSlowStandby, Target: SoakReplServer, DropRate: 1})
	s.Add(chaos.Fault{At: at(2), Kind: chaos.KindPartition, A: "gds0", B: cutNode})
	s.Add(chaos.Fault{At: at(4), Kind: chaos.KindHealStandby, Target: SoakReplServer})
	s.Add(chaos.Fault{At: at(5), Kind: chaos.KindHeal, A: "gds0", B: cutNode})
	s.Add(chaos.Fault{At: at(6), Kind: chaos.KindKillPrimary, Target: SoakReplServer})
	s.Add(chaos.Fault{At: at(7), Kind: chaos.KindInject, TypePrefix: "gs.", Latency: 2 * time.Millisecond})
	s.Add(chaos.Fault{At: at(8), Kind: chaos.KindFlipMode, Target: "multicast"})
	s.Add(chaos.Fault{At: at(9), Kind: chaos.KindClearInject})
	s.Add(chaos.Fault{At: at(10), Kind: chaos.KindFlipMode, Target: "content"})
	return s
}

func parseRoutingMode(s string) (core.RoutingMode, error) {
	switch s {
	case "broadcast":
		return core.RouteBroadcast, nil
	case "multicast":
		return core.RouteMulticast, nil
	case "content":
		return core.RouteContent, nil
	}
	return 0, fmt.Errorf("sim: unknown routing mode %q", s)
}

// soakRun is one assembled soak deployment; it implements chaos.Fabric.
type soakRun struct {
	cfg ChaosSoakConfig
	c   *Cluster
	ctx context.Context

	mode core.RoutingMode

	standbySvc *core.Service
	recv       *replica.Standby

	// serving overrides name → service after a promotion.
	serving map[string]*core.Service

	// rattSinks accumulates the attached realtime client's sinks across
	// attach generations (a fresh sink is registered after promotion).
	rattSinks []*core.MemoryNotifier

	injectRules []transport.FaultRule
	promoted    bool
	inherited   int
}

var _ chaos.Fabric = (*soakRun)(nil)

func (r *soakRun) servingFor(name string) *core.Service {
	if svc, ok := r.serving[name]; ok {
		return svc
	}
	return r.c.Service(name)
}

func (r *soakRun) settle(ctx context.Context) {
	r.c.Settle(ctx)
	if r.standbySvc != nil {
		_ = r.standbySvc.DrainDeliveries(ctx)
	}
}

// KillPrimary implements chaos.Fabric: the primary's address vanishes and
// the standby promotes into the inherited name at the current mode.
func (r *soakRun) KillPrimary(ctx context.Context, server string) error {
	if server != SoakReplServer {
		return fmt.Errorf("sim: soak can only kill %s, not %q", SoakReplServer, server)
	}
	if r.promoted {
		return fmt.Errorf("sim: %s already killed", server)
	}
	r.c.TR.SetNodeDown(ServerAddr(server), true)
	if err := r.recv.Promote(ctx, r.mode); err != nil {
		return err
	}
	r.promoted = true
	r.serving[server] = r.standbySvc
	// What the standby inherited parked for the detached normal client.
	r.inherited = r.standbySvc.Delivery().Pending("noff")
	// The attached realtime client re-attaches to the promoted standby.
	sink := core.NewMemoryNotifier()
	r.standbySvc.RegisterNotifier("ratt", sink)
	r.rattSinks = append(r.rattSinks, sink)
	return nil
}

// Partition and Heal implement chaos.Fabric over directory links.
func (r *soakRun) Partition(a, b string) error {
	r.c.PartitionGDSLink(a, b)
	return nil
}

func (r *soakRun) Heal(a, b string) error {
	r.c.HealGDSLink(a, b)
	return nil
}

// SlowStandby implements chaos.Fabric: degrade the replication stream to
// the server's standby.
func (r *soakRun) SlowStandby(server string, drop float64, latency time.Duration) error {
	if server != SoakReplServer {
		return fmt.Errorf("sim: soak has no standby for %q", server)
	}
	r.c.Inject.AddRule(transport.FaultRule{
		To: StandbyReplicaAddr(server), DropRate: drop, ExtraLatency: latency,
	})
	return nil
}

// HealStandby implements chaos.Fabric: restore the replication link and
// force a catch-up heartbeat (the lagging standby resyncs via snapshot).
func (r *soakRun) HealStandby(ctx context.Context, server string) error {
	if server != SoakReplServer {
		return fmt.Errorf("sim: soak has no standby for %q", server)
	}
	r.c.Inject.RemoveRules(func(fr transport.FaultRule) bool {
		return fr.To == StandbyReplicaAddr(server)
	})
	return r.recv.Heartbeat(ctx)
}

// FlipMode implements chaos.Fabric: every serving service switches
// dissemination mode.
func (r *soakRun) FlipMode(ctx context.Context, mode string) error {
	m, err := parseRoutingMode(mode)
	if err != nil {
		return err
	}
	for _, name := range r.c.ServerNames() {
		if r.promoted && name == SoakReplServer {
			continue // the dead primary stays dead; the standby flips below
		}
		if err := r.c.Service(name).SetRoutingMode(ctx, m); err != nil {
			return fmt.Errorf("sim: flip %s to %s: %w", name, mode, err)
		}
	}
	if r.promoted {
		if err := r.standbySvc.SetRoutingMode(ctx, m); err != nil {
			return fmt.Errorf("sim: flip promoted %s to %s: %w", SoakReplServer, mode, err)
		}
	}
	r.mode = m
	return nil
}

// Inject and ClearInject implement chaos.Fabric over the cluster's fault
// injector. ClearInject removes only engine-installed rules, leaving an
// armed slow-standby window intact.
func (r *soakRun) Inject(rule transport.FaultRule) error {
	r.injectRules = append(r.injectRules, rule)
	r.c.Inject.AddRule(rule)
	return nil
}

func (r *soakRun) ClearInject() error {
	mine := make(map[transport.FaultRule]int, len(r.injectRules))
	for _, fr := range r.injectRules {
		mine[fr]++
	}
	r.c.Inject.RemoveRules(func(fr transport.FaultRule) bool {
		if mine[fr] > 0 {
			mine[fr]--
			return true
		}
		return false
	})
	r.injectRules = nil
	return nil
}

// soakOutcome is one run's observations.
type soakOutcome struct {
	live int
	// Delivered multisets for the loss-critical observed clients.
	rt, ratt, noff map[string]int
	rtCount        int
	rattCount      int
	noffCount      int
	// E15-shaped QoS observations at SoakQoSServer.
	nmPrompt, nmTotal, blkPrompt int
	digests, digestEvents        int
	// E14-shaped failover observations at SoakReplServer.
	inherited int
	promoted  bool
	resyncs   int64
	// Loss accounting: pipeline-level drops across serving services.
	pipelineDropped int64
	// Transport cost and fault accounting.
	messages, blocked          int64
	injectedDrops, injectDelay int64
	applied                    []chaos.Applied
	slo                        []SLOReport
	// Trace accounting (TraceSample > 0).
	attribution              []StageAttribution
	traces                   []*trace.Trace
	traceSpans, traceDropped int64
	// Health accounting (cfg.Health).
	healthTransitions []health.Transition
	healthCycles      int
	// Flight-recorder accounting (cfg.FlightRecorder): the auto-captured
	// bundles with their parsed forms, the per-component ring stats, the
	// count of transitions into Critical, and the trace IDs the collector
	// had assembled by the end of the run (record resolution is checked
	// against this set).
	bundles        [][]byte
	dumps          []*logging.Dump
	critical       int
	logStats       []logging.ComponentStats
	retainedTraces map[string]bool
	wall           time.Duration
}

func countSoakPrimitives(sink *core.MemoryNotifier) int {
	n := 0
	for _, x := range sink.All() {
		if x.Composite == "" {
			n++
		}
	}
	return n
}

// runChaosSoak assembles the deployment, plays the workload under the
// given schedule (empty = baseline) and collects the outcome.
func runChaosSoak(cfg ChaosSoakConfig, schedule chaos.Schedule) (*soakOutcome, error) {
	start := time.Now()
	ctx := context.Background()
	nodes := maxInt(1, cfg.Servers/4)
	c, err := NewCluster(ClusterConfig{Seed: cfg.Seed, GDSNodes: nodes, GDSBranching: 3})
	if err != nil {
		return nil, err
	}
	defer c.Close()

	// One collector gathers spans from every service and directory node;
	// each component gets its own tracer (distinct seeds keep span IDs
	// collision-free across processes) feeding the shared ring.
	var tcol *trace.Collector
	var traceSeq int64
	newTracer := func(service string) *trace.Tracer {
		if tcol == nil {
			return nil
		}
		traceSeq++
		return trace.New(trace.Config{
			Service:    service,
			SampleRate: cfg.TraceSample,
			Seed:       cfg.Seed + traceSeq*7919,
			Collector:  tcol,
		})
	}
	if cfg.TraceSample > 0 {
		tcol = trace.NewCollector(1 << 18)
		for _, n := range c.Nodes {
			n.SetTracer(newTracer(n.ID()))
		}
	}

	// The virtual clock shared by the health engine and the logging plane:
	// it advances only at round boundaries, so every record and capture
	// timestamp is a pure function of the seed — the E19 byte-determinism
	// property. The mutex keeps -race quiet should any background emitter
	// ever read it; in the soak every log site runs on this goroutine.
	hclock := time.Unix(1_700_000_000, 0)
	var clkMu sync.Mutex
	lclock := func() time.Time {
		clkMu.Lock()
		defer clkMu.Unlock()
		return hclock
	}
	advanceClock := func() time.Time {
		clkMu.Lock()
		hclock = hclock.Add(soakHealthTick)
		t := hclock
		clkMu.Unlock()
		return t
	}

	// The E19 logging plane: one recorder at debug feeds every component's
	// flight ring; no sink is attached (ring-only, the always-on production
	// posture), and the flight recorder snapshots the rings plus the trace
	// IDs retained in the span collector at capture time.
	var (
		rec       *logging.Recorder
		flight    *logging.FlightRecorder
		coreLog   *logging.Logger
		bundles   [][]byte
		dumps     []*logging.Dump
		critical  int
		flightErr error
	)
	if cfg.FlightRecorder {
		rec = logging.NewRecorder(logging.Config{
			Level: logging.LevelDebug,
			Clock: lclock,
		})
		flight = logging.NewFlightRecorder(logging.FlightConfig{
			Recorder: rec,
			Clock:    lclock,
			TraceIDs: tcol.TraceIDs,
		})
		coreLog = rec.For("core")
		gdsLog := rec.For("gds")
		for _, n := range c.Nodes {
			n.SetLog(gdsLog)
		}
	}

	quota := func(cc *core.Config) {
		// A retry interval beyond the run keeps deferred redelivery out of
		// the measurement (E15's determinism trick); deferred traffic
		// drains only on the explicit re-attach at the end.
		cc.DeliveryConfig = &delivery.Config{RetryInterval: time.Hour}
	}
	names := make([]string, 0, cfg.Servers)
	for i := 0; i < cfg.Servers; i++ {
		name := fmt.Sprintf("C%03d", i)
		nodeIdx := i % nodes
		if i < 3 {
			// The observed servers sit on the root node: any directory link
			// may be cut without touching the invariant-bearing paths.
			nodeIdx = 0
		}
		if _, err := c.AddServerWith(name, nodeIdx, func(cc *core.Config) {
			quota(cc)
			cc.Tracer = newTracer(cc.ServerName)
			cc.Log = coreLog
		}); err != nil {
			return nil, err
		}
		if err := c.Service(name).SetRoutingMode(ctx, cfg.Mode); err != nil {
			return nil, err
		}
		names = append(names, name)
	}
	newQoS := func() *qos.Controller {
		// Burst-only buckets (rate 0 never refills) make quotas exact; the
		// digest period is long enough that only the explicit tick flushes.
		return qos.NewController(qos.Config{SubscriberBurst: cfg.Burst, BulkDigestEvery: time.Hour})
	}
	qosSvc := c.Service(SoakQoSServer)
	qosSvc.SetQoS(newQoS())
	replSvc := c.Service(SoakReplServer)
	replSvc.SetQoS(newQoS())

	// The soak's health plane: a rule engine over the QoS server's
	// registry, stepped on a virtual clock so rate windows behave the same
	// however fast the rounds run. Flight-recorder runs add the critical
	// soak-promotion rule and capture a post-mortem bundle the moment any
	// component turns critical — the kill-primary fault is the trigger.
	var heng *health.Engine
	var hreg *obs.Registry
	if cfg.Health || cfg.FlightRecorder {
		rulesText := soakHealthRules
		if cfg.FlightRecorder {
			rulesText += soakPromotionRules
		}
		hrules, err := health.ParseRules(rulesText)
		if err != nil {
			return nil, fmt.Errorf("sim: soak health rules: %w", err)
		}
		hreg = obs.NewRegistry()
		obs.RegisterService(hreg, qosSvc.Stats)
		hopts := health.Options{}
		if rec != nil {
			hopts.Log = rec.For("health")
			hopts.OnTransition = func(tr health.Transition) {
				if tr.To != health.Critical {
					return
				}
				critical++
				d, err := flight.Dump("critical:" + tr.Component)
				if err != nil {
					flightErr = fmt.Errorf("sim: soak flight dump: %w", err)
					return
				}
				raw, err := d.MarshalJSONL()
				if err != nil {
					flightErr = fmt.Errorf("sim: soak flight bundle: %w", err)
					return
				}
				dumps = append(dumps, d)
				bundles = append(bundles, raw)
			}
		}
		heng = health.NewEngine(hreg, hrules, hopts)
	}

	// The ballast population goes in before the standby joins, so the
	// snapshot path carries it; the observed profiles subscribe after, over
	// the stream path.
	coll := SoakPublisher + ".X"
	loadCfg := cfg.Load
	loadCfg.Collection = coll
	if loadCfg.Seed == 0 {
		loadCfg.Seed = cfg.Seed
	}
	lg, err := NewLoadGen(loadCfg)
	if err != nil {
		return nil, err
	}
	live, err := lg.Populate(c, names)
	if err != nil {
		return nil, err
	}

	// The replica pair for SoakReplServer, assembled as in E14; the
	// cluster's injectable transport lets schedule rules reach the stream.
	sb, err := c.AddStandby(SoakReplServer, func(cc *core.Config) {
		quota(cc)
		cc.Tracer = newTracer(SoakReplServer + "b")
		cc.Log = coreLog
		cc.QoS = newQoS()
	})
	if err != nil {
		return nil, err
	}
	standby, recv := sb.Service, sb.Standby
	if err := recv.Join(ctx); err != nil {
		return nil, err
	}
	if hreg != nil && cfg.FlightRecorder {
		// The soak-promotion rule watches gsalert_replica_promoted, which
		// lives on the standby's stats (selectors sum matching series, so
		// the QoS server's never-promoted zero contributes nothing).
		obs.RegisterService(hreg, standby.Stats)
	}

	// The observed subscribers: E15's cast at the QoS server, E14's cast at
	// the replicated server. All match every event of the collection.
	allEvents := profile.MustParse(fmt.Sprintf(`collection = "%s" AND event.type = "documents-added"`, coll))
	subscribe := func(svc *core.Service, host, client string, class qos.Class) (string, error) {
		p := profile.NewUser("soak-"+client, client, host, allEvents)
		p.Class = class
		return p.ID, svc.SubscribeProfile(p)
	}
	rtSink := c.Notifier(SoakQoSServer, "rt")
	nmSink := c.Notifier(SoakQoSServer, "nm")
	blkSink := c.Notifier(SoakQoSServer, "blk")
	if _, err := subscribe(qosSvc, SoakQoSServer, "rt", qos.ClassRealtime); err != nil {
		return nil, err
	}
	if _, err := subscribe(qosSvc, SoakQoSServer, "nm", qos.ClassNormal); err != nil {
		return nil, err
	}
	blkID, err := subscribe(qosSvc, SoakQoSServer, "blk", qos.ClassBulk)
	if err != nil {
		return nil, err
	}
	rattSink := c.Notifier(SoakReplServer, "ratt")
	if _, err := subscribe(replSvc, SoakReplServer, "ratt", qos.ClassRealtime); err != nil {
		return nil, err
	}
	if _, err := subscribe(replSvc, SoakReplServer, "noff", qos.ClassNormal); err != nil {
		return nil, err
	}

	run := &soakRun{
		cfg:        cfg,
		c:          c,
		ctx:        ctx,
		mode:       cfg.Mode,
		standbySvc: standby,
		recv:       recv,
		serving:    make(map[string]*core.Service),
		rattSinks:  []*core.MemoryNotifier{rattSink},
	}
	eng, err := chaos.NewEngine(schedule, run)
	if err != nil {
		return nil, err
	}

	// The soak: rounds of zipf-topic events, the schedule advancing after
	// each settled round.
	c.TR.ResetStats()
	pubSvc := c.Service(SoakPublisher)
	for round := 0; round < cfg.Rounds; round++ {
		for i := 0; i < cfg.EventsPerRound; i++ {
			ev := lg.Event(round, i)
			if _, err := pubSvc.PublishBuild(ctx, &collection.BuildResult{Events: []*event.Event{ev}}); err != nil {
				return nil, fmt.Errorf("sim: soak publish r%d/%d: %w", round, i, err)
			}
		}
		run.settle(ctx)
		if _, err := eng.AdvanceTo(ctx, round); err != nil {
			return nil, err
		}
		if heng != nil {
			heng.TickAt(advanceClock())
		}
	}
	run.settle(ctx)
	if heng != nil {
		// Quiet tail: no publishes, so the deferred-rate window drains and
		// any firing rule clears — completing the fire→clear cycle.
		for i := 0; i < 6; i++ {
			heng.TickAt(advanceClock())
		}
	}
	if flightErr != nil {
		return nil, flightErr
	}

	out := &soakOutcome{
		live:      live,
		rt:        make(map[string]int),
		ratt:      make(map[string]int),
		noff:      make(map[string]int),
		promoted:  run.promoted,
		inherited: run.inherited,
		applied:   eng.Log(),
	}

	// E15 shape at the QoS server: prompt counts, then the deferred normal
	// backlog drains on re-attach, then the coalescing digest flushes.
	out.rtCount = countKeys(out.rt, rtSink.All())
	out.nmPrompt = countSoakPrimitives(nmSink)
	out.blkPrompt = countSoakPrimitives(blkSink)
	qosSvc.RegisterNotifier("nm", nmSink)
	run.settle(ctx)
	out.nmTotal = countSoakPrimitives(nmSink)
	qosSvc.CompositeTick(time.Now().Add(2 * time.Hour))
	run.settle(ctx)
	for _, n := range blkSink.All() {
		if n.Composite == "digest" && n.ProfileID == blkID {
			out.digests++
			out.digestEvents += len(n.Contributing)
		}
	}

	// E14 shape at the replicated server: the attached realtime client's
	// multiset across attach generations, then the detached normal client
	// finally attaches at the serving service and drains its (possibly
	// inherited) mailbox.
	for _, sink := range run.rattSinks {
		out.rattCount += countKeys(out.ratt, sink.All())
	}
	servingRepl := run.servingFor(SoakReplServer)
	noffSink := core.NewMemoryNotifier()
	servingRepl.RegisterNotifier("noff", noffSink)
	if err := servingRepl.DrainDeliveries(ctx); err != nil {
		return nil, err
	}
	out.noffCount = countKeys(out.noff, noffSink.All())

	// Accounting: loss, replication catch-ups, transport cost, SLOs.
	var pipes []*delivery.Metrics
	for _, name := range names {
		m := run.servingFor(name).Delivery().Metrics()
		pipes = append(pipes, m)
		out.pipelineDropped += m.Snapshot().Dropped
	}
	out.resyncs = recv.ReplicaStats().Resyncs
	st := c.TR.Stats()
	out.messages, out.blocked = st.Sent, st.Blocked
	ist := c.Inject.Stats()
	out.injectedDrops, out.injectDelay = ist.Dropped, ist.Delayed
	out.slo = ClassSLOReports(pipes, cfg.SLO)
	if tcol != nil {
		out.traces = tcol.Traces(trace.Filter{})
		out.attribution = AttributionReports(trace.PathSamples(out.traces, trace.StageNotify))
		out.traceSpans = tcol.SpansTotal()
		out.traceDropped = tcol.Dropped()
	}
	if rec != nil {
		out.bundles = bundles
		out.dumps = dumps
		out.critical = critical
		out.logStats = rec.Stats()
		out.retainedTraces = make(map[string]bool, len(out.traces))
		for _, t := range out.traces {
			out.retainedTraces[t.TraceID] = true
		}
	}
	if heng != nil {
		out.healthTransitions = heng.Transitions()
		out.healthCycles = healthCycles(out.healthTransitions)
	}
	out.wall = time.Since(start)
	return out, nil
}

// healthCycles counts completed fire→clear cycles: transitions back to
// Healthy after a component had left it.
func healthCycles(trs []health.Transition) int {
	n := 0
	for _, tr := range trs {
		if tr.To == health.Healthy && tr.From != health.Healthy {
			n++
		}
	}
	return n
}

// ChaosSoakResult compares a chaos run against its failure-free baseline —
// one E16 row.
type ChaosSoakResult struct {
	Servers, Rounds, Events int
	Burst                   int
	Seed                    int64
	Mode                    string
	LiveProfiles            int

	// Composition of the applied schedule.
	Applied     []chaos.Applied
	FaultCounts map[chaos.Kind]int

	// Realtime loss-freedom: delivered counts and multiset equality with
	// the baseline, at the QoS server (rt) and through the failover (ratt).
	RealtimeDelivered int
	RealtimeIdentical bool
	FailoverDelivered int
	FailoverIdentical bool

	// Normal deferred-not-lost, at the QoS server and through the failover.
	NormalPrompt, NormalTotal int
	DetachedTotal             int
	DetachedIdentical         bool
	Inherited                 int

	// Bulk digest-exactly-once.
	BulkPrompt, Digests, DigestEvents int

	// Loss and fault accounting (chaos run).
	Promoted        bool
	Resyncs         int64
	PipelineDropped int64
	Messages        int64
	Blocked         int64
	InjectedDrops   int64

	// Per-class latency SLOs, chaos run and baseline.
	SLO         []SLOReport
	BaselineSLO []SLOReport

	// Per-stage latency attribution from the chaos run's traced notify
	// chains (empty unless TraceSample > 0).
	Attribution              []StageAttribution
	TraceSpans, TraceDropped int64

	// Health-plane observations from the chaos run (empty unless
	// cfg.Health): every component state transition, and the number of
	// completed fire→clear cycles.
	HealthTransitions []health.Transition
	HealthCycles      int

	WallChaos, WallBaseline time.Duration
}

// RunChaosSoak plays the soak twice — failure-free baseline, then under the
// chaos schedule — and compares the delivered multisets.
func RunChaosSoak(cfg ChaosSoakConfig) (*ChaosSoakResult, error) {
	if cfg.Servers < 4 {
		return nil, fmt.Errorf("sim: soak needs >= 4 servers, got %d", cfg.Servers)
	}
	baseline, err := runChaosSoak(cfg, chaos.Schedule{})
	if err != nil {
		return nil, fmt.Errorf("sim: E16 baseline: %w", err)
	}
	chaosRun, err := runChaosSoak(cfg, cfg.Schedule)
	if err != nil {
		return nil, fmt.Errorf("sim: E16 chaos: %w", err)
	}
	r := &ChaosSoakResult{
		Servers:           cfg.Servers,
		Rounds:            cfg.Rounds,
		Events:            cfg.Rounds * cfg.EventsPerRound,
		Burst:             cfg.Burst,
		Seed:              cfg.Seed,
		Mode:              cfg.Mode.String(),
		LiveProfiles:      chaosRun.live,
		Applied:           chaosRun.applied,
		FaultCounts:       cfg.Schedule.Counts(),
		RealtimeDelivered: chaosRun.rtCount,
		RealtimeIdentical: sameMultiset(baseline.rt, chaosRun.rt),
		FailoverDelivered: chaosRun.rattCount,
		FailoverIdentical: sameMultiset(baseline.ratt, chaosRun.ratt),
		NormalPrompt:      chaosRun.nmPrompt,
		NormalTotal:       chaosRun.nmTotal,
		DetachedTotal:     chaosRun.noffCount,
		DetachedIdentical: sameMultiset(baseline.noff, chaosRun.noff),
		Inherited:         chaosRun.inherited,
		BulkPrompt:        chaosRun.blkPrompt,
		Digests:           chaosRun.digests,
		DigestEvents:      chaosRun.digestEvents,
		Promoted:          chaosRun.promoted,
		Resyncs:           chaosRun.resyncs,
		PipelineDropped:   chaosRun.pipelineDropped + baseline.pipelineDropped,
		Messages:          chaosRun.messages,
		Blocked:           chaosRun.blocked,
		InjectedDrops:     chaosRun.injectedDrops,
		SLO:               chaosRun.slo,
		BaselineSLO:       baseline.slo,
		Attribution:       chaosRun.attribution,
		TraceSpans:        chaosRun.traceSpans,
		TraceDropped:      chaosRun.traceDropped,
		HealthTransitions: chaosRun.healthTransitions,
		HealthCycles:      chaosRun.healthCycles,
		WallChaos:         chaosRun.wall,
		WallBaseline:      baseline.wall,
	}
	return r, nil
}

// Check asserts the E16 acceptance bar on a result.
func (r *ChaosSoakResult) Check() error {
	shed := r.Events - r.Burst
	counts := r.FaultCounts
	switch {
	case counts[chaos.KindKillPrimary] < 1 || counts[chaos.KindPartition] < 1 || counts[chaos.KindFlipMode] < 1:
		return fmt.Errorf("sim: E16 schedule composition %v lacks a kill, a partition or a mode flip", counts)
	case len(r.Applied) != totalFaults(counts):
		return fmt.Errorf("sim: E16 applied %d of %d scheduled faults", len(r.Applied), totalFaults(counts))
	case counts[chaos.KindKillPrimary] > 0 && !r.Promoted:
		return fmt.Errorf("sim: E16 schedule kills a primary but no promotion happened")
	case r.RealtimeDelivered != r.Events:
		return fmt.Errorf("sim: E16 realtime delivered %d of %d — loss under chaos", r.RealtimeDelivered, r.Events)
	case !r.RealtimeIdentical:
		return fmt.Errorf("sim: E16 realtime multiset differs from the failure-free run")
	case r.FailoverDelivered != r.Events || !r.FailoverIdentical:
		return fmt.Errorf("sim: E16 failover client delivered %d of %d (identical=%v) — promotion lost or duplicated alerts",
			r.FailoverDelivered, r.Events, r.FailoverIdentical)
	case r.NormalPrompt != r.Burst || r.NormalTotal != r.Events:
		return fmt.Errorf("sim: E16 normal prompt/total = %d/%d, want %d/%d — deferral lost alerts",
			r.NormalPrompt, r.NormalTotal, r.Burst, r.Events)
	case r.DetachedTotal != r.Events || !r.DetachedIdentical:
		return fmt.Errorf("sim: E16 detached client total %d of %d (identical=%v) — parked alerts lost across promotion",
			r.DetachedTotal, r.Events, r.DetachedIdentical)
	case counts[chaos.KindKillPrimary] > 0 && r.Inherited <= 0:
		return fmt.Errorf("sim: E16 standby inherited %d parked alerts, want > 0", r.Inherited)
	case r.BulkPrompt != r.Burst || r.Digests != 1 || r.DigestEvents != shed:
		return fmt.Errorf("sim: E16 bulk prompt/digests/digest-events = %d/%d/%d, want %d/1/%d",
			r.BulkPrompt, r.Digests, r.DigestEvents, r.Burst, shed)
	case counts[chaos.KindSlowStandby] > 0 && r.Resyncs < 1:
		return fmt.Errorf("sim: E16 standby lagged but never resynced")
	case r.PipelineDropped != 0:
		return fmt.Errorf("sim: E16 %d notifications dropped from pipelines — actual loss", r.PipelineDropped)
	case counts[chaos.KindPartition] > 0 && r.Blocked == 0:
		return fmt.Errorf("sim: E16 schedule partitions a link but nothing was blocked — the cut missed")
	case counts[chaos.KindSlowStandby] > 0 && r.InjectedDrops == 0:
		return fmt.Errorf("sim: E16 standby was degraded but no message was injected-dropped")
	}
	for _, s := range append(append([]SLOReport(nil), r.SLO...), r.BaselineSLO...) {
		if !s.OK {
			return fmt.Errorf("sim: E16 class %s p99 %v exceeds SLO %v", s.Class, s.P99, s.Bound)
		}
	}
	// Traced runs must attribute coherently: each class's per-stage sums
	// reconstruct its end-to-end latency within 10%.
	for _, a := range r.Attribution {
		if a.SumError() > 0.10 {
			return fmt.Errorf("sim: E16 class %s stage-sum %v vs e2e %v — attribution off by %.1f%%",
				a.Class, a.StageSum, a.TotalE2E, a.SumError()*100)
		}
	}
	return nil
}

func totalFaults(counts map[chaos.Kind]int) int {
	n := 0
	for _, c := range counts {
		n += c
	}
	return n
}

// ChaosSoakTable renders one E16 result as an experiment table.
func ChaosSoakTable(r *ChaosSoakResult) *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("E16 — chaos soak (%d servers, %d live profiles, %d events, %d faults, seed %d)",
			r.Servers, r.LiveProfiles, r.Events, len(r.Applied), r.Seed),
		"check", "value")
	t.AddRow("realtime delivered / identical", fmt.Sprintf("%d / %v", r.RealtimeDelivered, r.RealtimeIdentical))
	t.AddRow("failover delivered / identical", fmt.Sprintf("%d / %v", r.FailoverDelivered, r.FailoverIdentical))
	t.AddRow("normal prompt → total", fmt.Sprintf("%d → %d", r.NormalPrompt, r.NormalTotal))
	t.AddRow("detached total / identical", fmt.Sprintf("%d / %v", r.DetachedTotal, r.DetachedIdentical))
	t.AddRow("inherited parked", r.Inherited)
	t.AddRow("bulk prompt / digests / digest events", fmt.Sprintf("%d / %d / %d", r.BulkPrompt, r.Digests, r.DigestEvents))
	t.AddRow("promoted / resyncs", fmt.Sprintf("%v / %d", r.Promoted, r.Resyncs))
	t.AddRow("pipeline dropped", r.PipelineDropped)
	t.AddRow("messages / blocked / injected drops", fmt.Sprintf("%d / %d / %d", r.Messages, r.Blocked, r.InjectedDrops))
	for _, s := range r.SLO {
		t.AddRow(fmt.Sprintf("%s p50/p99 (SLO %v)", s.Class, s.Bound),
			fmt.Sprintf("%v / %v delivered=%d ok=%v", s.P50, s.P99, s.Delivered, s.OK))
	}
	if len(r.Attribution) > 0 {
		t.AddRow("trace spans / ring-dropped", fmt.Sprintf("%d / %d", r.TraceSpans, r.TraceDropped))
	}
	if len(r.HealthTransitions) > 0 {
		t.AddRow("health transitions / fire→clear cycles", fmt.Sprintf("%d / %d", len(r.HealthTransitions), r.HealthCycles))
	}
	t.AddRow("wall chaos / baseline", fmt.Sprintf("%v / %v", r.WallChaos.Round(time.Millisecond), r.WallBaseline.Round(time.Millisecond)))
	return t
}
