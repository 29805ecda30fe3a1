package sim

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"github.com/gsalert/gsalert/internal/collection"
	"github.com/gsalert/gsalert/internal/core"
	"github.com/gsalert/gsalert/internal/metrics"
	"github.com/gsalert/gsalert/internal/profile"
	"github.com/gsalert/gsalert/internal/replica"
)

// E14 — replication & zero-loss failover. A 16-server tree hosts three
// subscribers on one server (the primary): an attached client, a detached
// client whose alerts park in its durable mailbox, and a composite
// subscriber. The primary streams its state to a standby. Mid-way through a
// publisher's rebuild sequence the primary is killed and the standby
// promoted — it re-registers the inherited name with the GDS (re-issuing
// multicast joins / content-digest advertisements for the inherited
// profile population) and drains inherited mailboxes to re-attaching
// clients. The run is repeated without the failure; for the primitive
// subscribers the delivered multiset must be identical in every routing
// mode. The composite subscriber demonstrates wrapper replication: its
// accumulation keeps firing after promotion, but a window that straddles
// the failover restarts (in-flight composite state is not replicated —
// docs/REPLICATION.md).

// ReplicaFailoverResult is one E14 row (one routing mode).
type ReplicaFailoverResult struct {
	Mode    string
	Servers int
	// Rounds is the publisher's total build count; the kill happens after
	// Rounds/2 of them.
	Rounds int
	// Baseline / Failover count primitive-subscriber notifications in the
	// failure-free and failover runs.
	Baseline int
	Failover int
	// Identical reports multiset equality of the two runs' primitive
	// deliveries, per client.
	Identical bool
	// PreKill / PostPromote split the failover run's deliveries around the
	// failure; Inherited counts notifications the standby inherited parked
	// and drained to the re-attaching detached client.
	PreKill     int
	PostPromote int
	Inherited   int
	// CompositeFirings counts composite notifications in each run (equal
	// counts, different window phases).
	BaselineComposite int
	FailoverComposite int
	// Messages is the failover run's transport cost (replication included).
	Messages int64
}

// replicaRunOutcome is one scenario run's delivered sets.
type replicaRunOutcome struct {
	// perClient maps client → delivery-key multiset (primitive profiles).
	perClient map[string]map[string]int
	// composite counts composite firings and their contributing sizes.
	composite   int
	preKill     int
	postPromote int
	inherited   int
	messages    int64
}

// notifKey identifies a notification independently of run-specific event
// IDs and timestamps: same profile, event shape and matched documents.
func notifKey(n core.Notification) string {
	docs := append([]string(nil), n.DocIDs...)
	sort.Strings(docs)
	return strings.Join([]string{
		n.ProfileID,
		n.Event.Type.String(),
		n.Event.Collection.String(),
		fmt.Sprintf("v%d", n.Event.BuildVersion),
		strings.Join(docs, ","),
	}, "|")
}

func countKeys(dst map[string]int, ns []core.Notification) int {
	total := 0
	for _, n := range ns {
		if n.Composite != "" {
			continue // composite firings are tallied separately
		}
		dst[notifKey(n)]++
		total++
	}
	return total
}

func sameMultiset(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// runReplicaScenario plays the E14 workload once. With failover set, the
// primary is killed after rounds/2 builds and its standby promoted.
func runReplicaScenario(servers, rounds int, mode core.RoutingMode, seed int64, failover bool) (*replicaRunOutcome, error) {
	c, err := NewCluster(ClusterConfig{Seed: seed, GDSNodes: maxInt(1, servers/4), GDSBranching: 3})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	ctx := context.Background()
	names := make([]string, 0, servers)
	for i := 0; i < servers; i++ {
		name := fmt.Sprintf("R%03d", i)
		if _, err := c.AddServer(name, -1); err != nil {
			return nil, err
		}
		if err := c.Service(name).SetRoutingMode(ctx, mode); err != nil {
			return nil, err
		}
		names = append(names, name)
	}
	primaryName, pub := names[0], names[1]
	coll := pub + ".X"
	if _, err := c.Server(pub).AddCollection(ctx, collection.Config{Name: "X", Public: true}); err != nil {
		return nil, err
	}
	primary := c.Service(primaryName)

	// "att" subscribes before the standby joins (snapshot path) and stays
	// attached; "off" and "cmp" subscribe after (stream path), "off" never
	// attaches until the end.
	attSink := c.Notifier(primaryName, "att")
	if _, err := primary.Subscribe("att", profile.MustParse(fmt.Sprintf(`collection = "%s"`, coll))); err != nil {
		return nil, err
	}

	// The standby: the primary's name, its own address, registered nowhere
	// until promotion.
	var standby *core.Service
	var recv *replica.Standby
	if failover {
		sb, err := c.AddStandby(primaryName, nil)
		if err != nil {
			return nil, err
		}
		standby, recv = sb.Service, sb.Standby
		if err := recv.Join(ctx); err != nil {
			return nil, err
		}
	}

	if _, err := primary.Subscribe("off", profile.MustParse(fmt.Sprintf(
		`collection = "%s" AND event.type = "documents-added"`, coll))); err != nil {
		return nil, err
	}
	cmpSink := c.Notifier(primaryName, "cmp")
	if _, err := primary.SubscribeComposite("cmp", fmt.Sprintf(
		`COUNT 3 OF (collection = "%s" AND event.type = "collection-rebuilt")`, coll)); err != nil {
		return nil, err
	}

	out := &replicaRunOutcome{perClient: map[string]map[string]int{
		"att": make(map[string]int),
		"off": make(map[string]int),
	}}
	docs := []*collection.Document{{ID: "base", Content: "stable document"}}
	build := func(round int) error {
		docs = append(docs, &collection.Document{
			ID:      fmt.Sprintf("extra-%d", round),
			Content: fmt.Sprintf("document of round %d", round),
		})
		_, _, err := c.Server(pub).Build(ctx, "X", docs)
		return err
	}

	c.TR.ResetStats()
	kill := rounds / 2
	for r := 1; r <= kill; r++ {
		if err := build(r); err != nil {
			return nil, err
		}
	}
	// Quiesce the pipelines so every pre-kill notification is either
	// delivered (and its ack replicated) or parked (and inherited).
	c.Settle(ctx)

	serving := primary
	servingSinkAtt := attSink
	servingSinkCmp := cmpSink
	if failover {
		out.preKill = countKeys(out.perClient["att"], attSink.All())
		for _, n := range cmpSink.All() {
			if n.Composite != "" {
				out.composite++
			}
		}
		// Kill: the primary's address vanishes from the network. (Only the
		// inbound address goes down — the logical server name lives on in
		// the standby, which inherits it at promotion.)
		c.TR.SetNodeDown(ServerAddr(primaryName), true)
		if err := recv.Promote(ctx, 0); err != nil {
			return nil, err
		}
		serving = standby
		// What the standby inherited parked: the detached client's alerts,
		// undelivered at the moment of death.
		out.inherited = serving.Delivery().Pending("off")
		// Clients re-attach to the promoted standby with fresh sinks.
		servingSinkAtt = core.NewMemoryNotifier()
		serving.RegisterNotifier("att", servingSinkAtt)
		servingSinkCmp = core.NewMemoryNotifier()
		serving.RegisterNotifier("cmp", servingSinkCmp)
	}

	for r := kill + 1; r <= rounds; r++ {
		if err := build(r); err != nil {
			return nil, err
		}
	}
	c.Settle(ctx)
	if failover {
		if err := serving.DrainDeliveries(ctx); err != nil {
			return nil, err
		}
	}

	// The detached client finally attaches at the serving server: its
	// parked mailbox — inherited across the failover — drains now.
	offSink := core.NewMemoryNotifier()
	serving.RegisterNotifier("off", offSink)
	if err := serving.DrainDeliveries(ctx); err != nil {
		return nil, err
	}

	post := countKeys(out.perClient["att"], servingSinkAtt.All())
	if failover {
		out.postPromote = post
	}
	countKeys(out.perClient["off"], offSink.All())
	for _, n := range servingSinkCmp.All() {
		if n.Composite != "" {
			out.composite++
		}
	}
	out.messages = c.TR.Stats().Sent
	return out, nil
}

// RunReplicaFailover plays the E14 scenario with and without the failure
// and compares the primitive subscribers' delivered multisets.
func RunReplicaFailover(servers, rounds int, mode core.RoutingMode, seed int64) (ReplicaFailoverResult, error) {
	baseline, err := runReplicaScenario(servers, rounds, mode, seed, false)
	if err != nil {
		return ReplicaFailoverResult{}, err
	}
	failover, err := runReplicaScenario(servers, rounds, mode, seed, true)
	if err != nil {
		return ReplicaFailoverResult{}, err
	}
	res := ReplicaFailoverResult{
		Mode:              mode.String(),
		Servers:           servers,
		Rounds:            rounds,
		Identical:         true,
		PreKill:           failover.preKill,
		PostPromote:       failover.postPromote,
		Inherited:         failover.inherited,
		BaselineComposite: baseline.composite,
		FailoverComposite: failover.composite,
		Messages:          failover.messages,
	}
	for client, keys := range baseline.perClient {
		for _, n := range keys {
			res.Baseline += n
		}
		if !sameMultiset(keys, failover.perClient[client]) {
			res.Identical = false
		}
	}
	for _, keys := range failover.perClient {
		for _, n := range keys {
			res.Failover += n
		}
	}
	return res, nil
}

// ReplicaFailoverTable runs E14 over all three routing modes, asserting the
// zero-loss property in each.
func ReplicaFailoverTable(servers, rounds int, seed int64) (*metrics.Table, error) {
	t := metrics.NewTable(
		fmt.Sprintf("E14 — primary kill + standby promotion (%d servers, kill after %d of %d rounds)", servers, rounds/2, rounds),
		"mode", "baseline notifs", "failover notifs", "identical", "pre-kill", "post-promote", "inherited parked", "composite b/f", "messages")
	for _, mode := range []core.RoutingMode{core.RouteBroadcast, core.RouteMulticast, core.RouteContent} {
		r, err := RunReplicaFailover(servers, rounds, mode, seed)
		if err != nil {
			return nil, err
		}
		if !r.Identical || r.Baseline != r.Failover {
			return nil, fmt.Errorf("sim: E14 %s delivered %d notifications vs %d in the failure-free run — promotion lost or duplicated alerts",
				r.Mode, r.Failover, r.Baseline)
		}
		if r.BaselineComposite != r.FailoverComposite {
			return nil, fmt.Errorf("sim: E14 %s composite firings %d vs %d — wrapper replication broken",
				r.Mode, r.FailoverComposite, r.BaselineComposite)
		}
		t.AddRow(r.Mode, r.Baseline, r.Failover, fmt.Sprintf("%v", r.Identical),
			r.PreKill, r.PostPromote, r.Inherited,
			fmt.Sprintf("%d/%d", r.BaselineComposite, r.FailoverComposite), r.Messages)
	}
	return t, nil
}
