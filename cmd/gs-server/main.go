// Command gs-server runs one Greenstone server with the alerting service
// integrated (paper §3/§4) over HTTP. The server registers with a GDS node
// for naming and event flooding.
//
// With -demo, the server creates a sample public collection and rebuilds it
// on the given interval so subscribers receive a steady stream of events:
//
//	gs-server -name Hamilton -addr 127.0.0.1:8001 -gds 127.0.0.1:7001 \
//	          -demo -demo-interval 10s
//
// Distributed collections: -sub Host=Collection adds a remote
// sub-collection reference to the demo collection, which triggers auxiliary
// profile forwarding to that host (paper §4.2):
//
//	gs-server -name Hamilton ... -demo -sub London=E
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/gsalert/gsalert/internal/collection"
	"github.com/gsalert/gsalert/internal/core"
	"github.com/gsalert/gsalert/internal/delivery"
	"github.com/gsalert/gsalert/internal/event"
	"github.com/gsalert/gsalert/internal/greenstone"
	"github.com/gsalert/gsalert/internal/health"
	"github.com/gsalert/gsalert/internal/node"
	"github.com/gsalert/gsalert/internal/obs"
	"github.com/gsalert/gsalert/internal/protocol"
	"github.com/gsalert/gsalert/internal/qos"
	"github.com/gsalert/gsalert/internal/transport"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name         = flag.String("name", "Hamilton", "server name (network-internal, resolved via the GDS)")
		addr         = flag.String("addr", "127.0.0.1:8001", "listen address")
		gdsAddr      = flag.String("gds", "127.0.0.1:7001", "GDS node address to register with")
		routing      = flag.String("routing", "broadcast", "GDS dissemination mode: broadcast, multicast or content (see docs/ROUTING.md)")
		warmup       = flag.Duration("content-warmup", core.DefaultContentWarmup, "flood-fallback window after entering content routing, while digest advertisements propagate; 0 disables")
		dedupCap     = flag.Int("dedup-capacity", event.DefaultDedupCapacity, "event-ID dedup window (IDs remembered); larger windows cost ~100 B per ID but survive longer broadcast echo delays, smaller ones risk re-delivering late duplicates")
		compTick     = flag.Duration("composite-tick", time.Second, "composite-engine tick interval: bounds digest flush latency and window-GC promptness (see docs/COMPOSITE.md)")
		demo         = flag.Bool("demo", false, "create a demo collection and rebuild it periodically")
		demoName     = flag.String("demo-name", "Demo", "demo collection name")
		demoInterval = flag.Duration("demo-interval", 15*time.Second, "demo rebuild interval")
		subsFlag     = flag.String("sub", "", "comma-separated remote sub-collection refs Host=Collection for the demo collection")

		// Delivery pipeline knobs (internal/delivery).
		dlvShards   = flag.Int("delivery-shards", delivery.DefaultShards, "delivery worker shards (clients hash onto shards)")
		dlvQueue    = flag.Int("delivery-queue-depth", delivery.DefaultQueueDepth, "per-shard delivery queue depth")
		dlvOverflow = flag.String("delivery-overflow", "block", "full-queue policy: block, drop-oldest or spill")
		dlvBatch    = flag.Int("delivery-batch", delivery.DefaultBatchSize, "notifications per delivery batch (flush on size)")
		dlvFlush    = flag.Duration("delivery-flush-interval", delivery.DefaultFlushInterval, "max delivery batching latency (flush on interval)")
		mailboxDir  = flag.String("mailbox-dir", "", "directory for durable per-user mailboxes (WAL); empty = memory only")
		mailboxCap  = flag.Int("mailbox-cap", delivery.DefaultMailboxCap, "max parked notifications per user")

		// QoS admission-control knobs (internal/qos, docs/QOS.md).
		qosOn        = flag.Bool("qos", false, "enable QoS admission control: per-subscriber and per-collection token-bucket quotas with graceful degradation (normal defers, bulk coalesces into digests; realtime is never shed)")
		qosSubRate   = flag.Float64("qos-subscriber-rate", 100, "sustained notifications/sec each subscriber may receive across non-realtime classes")
		qosSubBurst  = flag.Int("qos-subscriber-burst", 200, "per-subscriber token-bucket capacity; 0 disables the subscriber quota dimension")
		qosCollRate  = flag.Float64("qos-collection-rate", 1000, "sustained events/sec one collection may fan out through non-realtime subscriptions")
		qosCollBurst = flag.Int("qos-collection-burst", 2000, "per-collection token-bucket capacity; 0 disables the collection quota dimension")
		qosBulkEvery = flag.Duration("qos-bulk-digest", qos.DefaultBulkDigestEvery, "coalescing period for over-quota bulk traffic: shed bulk notifications accrue and flush as one digest per period")
		qosWeights   = flag.String("qos-weights", "", "delivery WFQ class weights as realtime:normal:bulk (e.g. 8:4:1); empty = defaults")

		// Replication & ops knobs (internal/replica, docs/REPLICATION.md).
		replListen  = flag.String("replica-listen", "", "replication endpoint to listen on (host:port); primaries accept standby joins here, standbys receive the stream")
		replicaOf   = flag.String("replica-of", "", "run as standby of the primary whose replication endpoint is this address (requires -replica-listen); the server inherits -name, stays unregistered and passive, and serves only after promotion")
		promoteAddr = flag.String("promote", "", "one-shot: order the standby at this replication endpoint to promote to serving primary, then exit")

		// Tracing, logging and health knobs beyond the shared ops flags
		// (node.OpsConfig.BindFlags; docs/TRACING.md, docs/LOGGING.md,
		// docs/HEALTH.md).
		traceSample = flag.Float64("trace-sample", 0, "head-sampling rate for end-to-end event traces in [0,1]: fraction of publishes recorded as span trees, served at GET /traces on the ops endpoint; 0 disables (with -trace-slow 0)")
		traceSlow   = flag.Duration("trace-slow", 0, "tail-retain threshold: publish roots slower than this are traced even when head sampling passed them over; 0 disables tail retention")
		logRate     = flag.Float64("log-stderr-rate", 50, "per-component stderr lines/sec cap (token bucket; suppressed lines stay ring-retained, counted in gsalert_logging_suppressed_total); 0 disables the limiter")
		healthMeta  = flag.Bool("health-alerts", true, "publish each health state transition as a health-alert event into the pipeline (the dogfood; subscribe with event.type = \"health-alert\")")
		readyGDS    = flag.Bool("ready-gds", true, "gate /readyz on successful GDS registration (serving roles only)")
		readyRepl   = flag.Bool("ready-standby", true, "on a standby, gate /readyz on being snapshot-synced with a reachable primary (promotion flips the gate to serving-side checks)")
	)
	var opsCfg node.OpsConfig
	opsCfg.BindFlags(flag.CommandLine)
	flag.Parse()

	if *promoteAddr != "" {
		return runPromote(*promoteAddr)
	}

	mode, err := core.ParseRoutingMode(*routing)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gs-server: %v\n", err)
		return 1
	}
	// At the config layer zero means "use the default", so translate the
	// flag's explicit 0 ("no warm-up") to the negative sentinel.
	if *warmup == 0 {
		*warmup = -1
	}

	tr := transport.NewHTTP()
	defer func() { _ = tr.Close() }()
	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()

	overflow, err := delivery.ParseOverflowPolicy(*dlvOverflow)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gs-server: %v\n", err)
		return 1
	}
	weights, err := parseClassWeights(*qosWeights)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gs-server: %v\n", err)
		return 1
	}
	opsCfg.Prog, opsCfg.ID = "gs-server", *name
	opsCfg.Trace = *traceSample > 0 || *traceSlow > 0
	opsCfg.TraceSample, opsCfg.TraceSlow, opsCfg.LogRate = *traceSample, *traceSlow, *logRate
	ops, err := node.NewOps(opsCfg, tr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gs-server: %v\n", err)
		return 1
	}

	var ctrl *qos.Controller
	if *qosOn {
		ctrl = qos.NewController(qos.Config{
			SubscriberRate:  *qosSubRate,
			SubscriberBurst: *qosSubBurst,
			CollectionRate:  *qosCollRate,
			CollectionBurst: *qosCollBurst,
			BulkDigestEvery: *qosBulkEvery,
		})
	}
	// A standby (-replica-of) never registers and never advertises: the
	// primary owns the server name until promotion. Promotion (via
	// `gs-server -promote <addr>` or replica.Standby.Promote) registers and
	// re-issues the inherited routing mode itself.
	n, err := node.New(node.Config{
		Core: core.Config{
			ServerName: *name,
			ServerAddr: *addr,
			Transport:  tr,
			DeliveryConfig: &delivery.Config{
				Shards:        *dlvShards,
				QueueDepth:    *dlvQueue,
				Overflow:      overflow,
				BatchSize:     *dlvBatch,
				FlushInterval: *dlvFlush,
				Dir:           *mailboxDir,
				MailboxCap:    *mailboxCap,
				ClassWeights:  weights,
			},
			ContentWarmup: *warmup,
			DedupCapacity: *dedupCap,
			QoS:           ctrl,
			Tracer:        ops.Tracer,
			Log:           ops.Log.For("core"),
		},
		GDSAddr:       *gdsAddr,
		ReplicaListen: *replListen,
		ReplicaOf:     *replicaOf,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "gs-server: %v\n", err)
		return 1
	}
	defer func() { _ = n.Close() }()
	svc := n.Service
	if *mailboxDir != "" {
		if r := svc.Delivery().Metrics().Recovered.Value(); r > 0 {
			fmt.Printf("gs-server %s: recovered %d undelivered notifications from %s\n", *name, r, *mailboxDir)
		}
	}
	// Composite profiles need the periodic tick for digest flushes and
	// window garbage collection.
	if err := svc.StartCompositeTicker(*compTick); err != nil {
		fmt.Fprintf(os.Stderr, "gs-server: composite ticker: %v\n", err)
		return 1
	}

	standby := n.Standby != nil
	if standby {
		// Join with retry (the primary may not be up yet), then heartbeat
		// forever: a probe that finds the stream broken, the primary
		// restarted, or positions diverged rejoins via snapshot resync.
		// Without the loop a single stream break would silently freeze the
		// standby until the operator noticed.
		recv := n.Standby
		go func() {
			joined := false
			for !recv.Promoted() {
				opCtx, opCancel := context.WithTimeout(ctx, 10*time.Second)
				var err error
				if !joined {
					if err = recv.Join(opCtx); err == nil {
						joined = true
						fmt.Printf("gs-server %s standing by for %s (stream at %s)\n", *name, *replicaOf, *replListen)
					} else {
						fmt.Fprintf(os.Stderr, "gs-server: standby join: %v (retrying)\n", err)
					}
				} else if err = recv.Heartbeat(opCtx); err != nil {
					fmt.Fprintf(os.Stderr, "gs-server: standby heartbeat: %v (retrying)\n", err)
				}
				opCancel()
				select {
				case <-ctx.Done():
					return
				case <-time.After(5 * time.Second):
				}
			}
		}()
	} else {
		regCtx, regCancel := context.WithTimeout(ctx, 10*time.Second)
		err = n.Register(regCtx)
		regCancel()
		if err != nil {
			fmt.Fprintf(os.Stderr, "gs-server: GDS registration failed (continuing solitary): %v\n", err)
		} else {
			fmt.Printf("gs-server %s registered with GDS at %s\n", *name, *gdsAddr)
		}

		// Dissemination mode after registration: multicast joins groups and
		// content routing advertises the profile digest through the GDS node.
		if mode != core.RouteBroadcast {
			modeCtx, modeCancel := context.WithTimeout(ctx, 10*time.Second)
			err = svc.SetRoutingMode(modeCtx, mode)
			modeCancel()
			if err != nil {
				fmt.Fprintf(os.Stderr, "gs-server: routing mode %s: %v (reverting to broadcast)\n", mode, err)
				if err := svc.SetRoutingMode(context.Background(), core.RouteBroadcast); err != nil {
					fmt.Fprintf(os.Stderr, "gs-server: revert to broadcast: %v\n", err)
				}
			} else {
				fmt.Printf("gs-server %s disseminating via %s routing\n", *name, mode)
			}
		}
		if n.Primary != nil {
			fmt.Printf("gs-server %s accepting a standby at %s\n", *name, *replListen)
		}
	}

	// Observability: one registry covers every subsystem, served (with the
	// JSON /stats payload) at -metrics-addr and pushed to -metrics-push-url.
	// The health plane evaluates its rules against the same registry and,
	// with -health-alerts, publishes every state transition back into the
	// pipeline as a health-alert event.
	obs.RegisterService(ops.Registry, svc.Stats)
	obs.RegisterDelivery(ops.Registry, svc.Delivery())
	if ctrl != nil {
		obs.RegisterQoS(ops.Registry, ctrl)
	}
	statsJSON := func() any {
		return struct {
			Service  core.ServiceStats
			Delivery delivery.Snapshot
		}{svc.Stats(), svc.Delivery().Metrics().Snapshot()}
	}
	var onTransition func(health.Transition)
	if *healthMeta {
		onTransition = node.AlertOnTransition(svc, func(err error) {
			fmt.Fprintf(os.Stderr, "gs-server: health alert publish: %v\n", err)
		})
	}
	checks := []node.Check{{Name: "pipeline", Ready: func() error { return nil }}}
	if *readyGDS {
		checks = append(checks, node.Check{Name: "gds-registered", Ready: n.GDSRegistered})
	}
	if standby && *readyRepl {
		checks = append(checks, node.Check{Name: "standby-caught-up", Ready: n.StandbyCaughtUp})
	}
	if err := ops.Start(statsJSON, onTransition, checks...); err != nil {
		fmt.Fprintf(os.Stderr, "gs-server: %v\n", err)
		return 1
	}
	defer ops.Close()

	// The retry queue delivers deferred aux-profile traffic in the
	// background (paper §7 reconnection semantics).
	if err := svc.Retry().Start(2 * time.Second); err != nil {
		fmt.Fprintf(os.Stderr, "gs-server: retry queue: %v\n", err)
		return 1
	}
	defer svc.Retry().Stop()

	if *demo && !standby {
		if err := runDemo(ctx, n.Server, *demoName, *subsFlag, *demoInterval); err != nil {
			fmt.Fprintf(os.Stderr, "gs-server: demo: %v\n", err)
			return 1
		}
	}

	if ctrl != nil {
		fmt.Printf("gs-server %s admission control on (subscriber %g/s burst %d, collection %g/s burst %d, bulk digest every %s)\n",
			*name, *qosSubRate, *qosSubBurst, *qosCollRate, *qosCollBurst, *qosBulkEvery)
	}
	fmt.Printf("gs-server %s listening on %s\n", *name, *addr)
	<-ctx.Done()

	// Graceful shutdown: stop accepting publishes first (close the protocol
	// listener and unregister from the directory so peers stop routing
	// here), then drain the delivery pipeline and flush the retry queue —
	// spooled aux-profile ops would otherwise wait out a full partition
	// cycle, and in-flight notifications would sit queued until the next
	// start's WAL recovery. The deferred closes then compact the mailboxes.
	fmt.Println("gs-server: shutting down — draining deliveries and flushing spooled ops")
	shCtx, shCancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer shCancel()
	_ = n.Server.Close()
	if !standby {
		_ = n.GDS.Unregister(shCtx)
	}
	if err := svc.DrainDeliveries(shCtx); err != nil {
		fmt.Fprintf(os.Stderr, "gs-server: drain on shutdown: %v (undelivered alerts stay in their mailboxes)\n", err)
	}
	if flushed := svc.Retry().Flush(shCtx, true); flushed > 0 {
		fmt.Printf("gs-server: flushed %d spooled server-to-server ops\n", flushed)
	}
	fmt.Println("gs-server: shutdown complete")
	return 0
}

// parseClassWeights parses "realtime:normal:bulk" WFQ weights (e.g. 8:4:1);
// the empty string selects the delivery defaults.
func parseClassWeights(s string) ([qos.NumClasses]int, error) {
	var w [qos.NumClasses]int
	if s == "" {
		return w, nil
	}
	parts := strings.Split(s, ":")
	if len(parts) != qos.NumClasses {
		return w, fmt.Errorf("bad -qos-weights %q (want realtime:normal:bulk, e.g. 8:4:1)", s)
	}
	order := []qos.Class{qos.ClassRealtime, qos.ClassNormal, qos.ClassBulk}
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 0 {
			return w, fmt.Errorf("bad -qos-weights entry %q (want a positive integer)", p)
		}
		w[order[i]] = v
	}
	return w, nil
}

// runPromote orders the standby at addr to promote itself, then exits:
// `gs-server -promote 127.0.0.1:9002` is the operator's failover switch.
func runPromote(addr string) int {
	tr := transport.NewHTTP()
	defer func() { _ = tr.Close() }()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	env, err := protocol.NewEnvelope("gs-promote", protocol.MsgReplPromote, &protocol.ReplPromote{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "gs-server: promote: %v\n", err)
		return 1
	}
	if err := transport.SendOneWay(ctx, tr, addr, env); err != nil {
		fmt.Fprintf(os.Stderr, "gs-server: promote %s: %v\n", addr, err)
		return 1
	}
	fmt.Printf("standby at %s promoted\n", addr)
	return 0
}

// runDemo creates the demo collection and starts the rebuild loop.
func runDemo(ctx context.Context, srv *greenstone.Server, collName, subsFlag string, interval time.Duration) error {
	cfg := collection.Config{
		Name:        collName,
		Title:       "Demo Collection",
		Public:      true,
		IndexFields: []string{"dc.Title", "dc.Creator"},
		Classifiers: []string{"dc.Title"},
	}
	for _, ref := range strings.Split(subsFlag, ",") {
		ref = strings.TrimSpace(ref)
		if ref == "" {
			continue
		}
		host, sub, ok := strings.Cut(ref, "=")
		if !ok {
			return fmt.Errorf("bad -sub entry %q (want Host=Collection)", ref)
		}
		cfg.Subs = append(cfg.Subs, collection.SubRef{Host: host, Name: sub})
	}
	if _, err := srv.AddCollection(ctx, cfg); err != nil {
		return err
	}
	build := func(round int) {
		docs := demoDocs(srv.Name(), round)
		if _, _, err := srv.Build(ctx, collName, docs); err != nil {
			fmt.Fprintf(os.Stderr, "gs-server: demo rebuild: %v\n", err)
			return
		}
		fmt.Printf("rebuilt %s.%s (round %d, %d docs)\n", srv.Name(), collName, round, len(docs))
	}
	build(0)
	go func() {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		round := 1
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				build(round)
				round++
			}
		}
	}()
	return nil
}

func demoDocs(host string, round int) []*collection.Document {
	docs := make([]*collection.Document, 0, 6)
	for i := 0; i < 5; i++ {
		docs = append(docs, &collection.Document{
			ID: fmt.Sprintf("%s-doc-%d", host, i),
			Metadata: map[string][]string{
				"dc.Title":   {fmt.Sprintf("Report %d from %s", i, host)},
				"dc.Creator": {fmt.Sprintf("Author %d", i%3)},
			},
			Content: fmt.Sprintf("report %d body, revision %d, topics digital library alerting", i, round),
			MIME:    "text/plain",
		})
	}
	// One fresh document per round so subscribers see documents-added.
	docs = append(docs, &collection.Document{
		ID:       fmt.Sprintf("%s-new-%d", host, round),
		Metadata: map[string][]string{"dc.Title": {fmt.Sprintf("Bulletin %d", round)}},
		Content:  fmt.Sprintf("bulletin issued in round %d", round),
		MIME:     "text/plain",
	})
	return docs
}
