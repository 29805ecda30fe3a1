package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"strings"
	"time"

	"github.com/gsalert/gsalert/internal/collection"
	"github.com/gsalert/gsalert/internal/core"
	"github.com/gsalert/gsalert/internal/delivery"
	"github.com/gsalert/gsalert/internal/filter"
	"github.com/gsalert/gsalert/internal/gds"
	"github.com/gsalert/gsalert/internal/greenstone"
	"github.com/gsalert/gsalert/internal/qos"
	"github.com/gsalert/gsalert/internal/replica"
	"github.com/gsalert/gsalert/internal/transport"
)

// endpointAddr is where every client's RemoteNotifier pushes.
const endpointAddr = "client://bench"

// cluster is one assembled deployment on a memory transport.
type cluster struct {
	w        workload
	mem      *transport.Memory
	net      transport.Transport // mem, or the tracing wrapper around it
	tr       *tracer             // nil when untraced
	nodes    []*gds.Node
	servers  []*greenstone.Server
	svcs     []*core.Service
	matchers []filter.Matcher
	primary  *replica.Primary
	standby  *replica.Standby
	closers  []io.Closer
	ep       *endpoint
}

// assemble builds the directory tree, the servers with their collections
// and alerting services, the client endpoint and, for replicated
// workloads, the standby; it then subscribes the initial population and
// attaches every client.
func assemble(ctx context.Context, in *inputs, tr *tracer) (c *cluster, err error) {
	w := in.w
	c = &cluster{w: w, mem: transport.NewMemory(in.seed), tr: tr}
	c.net = c.mem
	if tr != nil {
		c.net = &tracedTransport{inner: c.mem, tr: tr}
	}
	defer func() {
		if err != nil {
			c.close()
			c = nil
		}
	}()

	for i := 0; i < w.GDSNodes; i++ {
		stratum := 1
		if i > 0 {
			stratum = 2
		}
		node, err := gds.NewNode(fmt.Sprintf("gds%d", i), fmt.Sprintf("gds://gds%d", i), stratum, c.net)
		if err != nil {
			return nil, err
		}
		c.nodes = append(c.nodes, node)
		if i > 0 {
			if err := node.AttachToParent(ctx, c.nodes[0].ID(), c.nodes[0].Addr()); err != nil {
				return nil, err
			}
		}
	}

	for i := 0; i < w.Servers; i++ {
		var ctrl *qos.Controller
		if w.QoS {
			// Quotas far above the offered load: admission runs on every
			// match and must admit all of them.
			ctrl = qos.NewController(qos.Config{
				SubscriberRate: 1e6, SubscriberBurst: 1 << 20,
				CollectionRate: 1e6, CollectionBurst: 1 << 20,
			})
		}
		name := serverName(i)
		addr := "gs://" + name
		cli := gds.NewClient(name, addr, c.nodes[i%len(c.nodes)].Addr(), c.net)
		// Long enough that no cached resolution expires inside a run, so
		// the message count per event depends on the seed alone.
		cli.SetResolveTTL(time.Hour)
		var m filter.Matcher = filter.NewEqualityPreferred()
		if tr != nil {
			m = &tracedMatcher{Matcher: m, tr: tr}
		}
		store := collection.NewStore(name)
		svc, err := core.New(core.Config{
			ServerName: name, ServerAddr: addr, Transport: c.net,
			GDS: cli, Store: store, Matcher: m, QoS: ctrl, ContentWarmup: -1,
		})
		if err != nil {
			return nil, err
		}
		c.svcs = append(c.svcs, svc)
		c.matchers = append(c.matchers, m)
		srv, err := greenstone.NewServer(greenstone.ServerConfig{
			Name: name, Addr: addr, Transport: c.net, Store: store, Alerting: svc, Resolver: cli,
		})
		if err != nil {
			return nil, err
		}
		c.servers = append(c.servers, srv)
		if err := cli.Register(ctx); err != nil {
			return nil, err
		}
	}
	for _, srv := range c.servers {
		for j := 0; j < w.Collections; j++ {
			if _, err := srv.AddCollection(ctx, collection.Config{Name: collName(j), Public: true}); err != nil {
				return nil, err
			}
		}
	}
	for _, sc := range in.supers {
		cfg := collection.Config{Name: "Super", Public: true,
			Subs: []collection.SubRef{{Host: serverName(sc.subHost), Name: collName(0)}}}
		if _, err := c.servers[sc.host].AddCollection(ctx, cfg); err != nil {
			return nil, err
		}
	}

	c.ep = newEndpoint(in)
	l, err := c.net.Listen(endpointAddr, c.ep)
	if err != nil {
		return nil, err
	}
	c.closers = append(c.closers, l)

	for _, s := range in.subs[:in.initial] {
		c.attach(s)
		if _, err := c.subscribe(s); err != nil {
			return nil, err
		}
	}

	if w.Standby {
		if err := c.addStandby(ctx); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// addStandby builds a passive copy of server 0, joins it to the primary
// (snapshot catch-up) and from then on every change streams to it.
func (c *cluster) addStandby(ctx context.Context) error {
	name := serverName(0)
	addr := "gs://" + name + "b"
	cli := gds.NewClient(name, addr, c.nodes[0].Addr(), c.net)
	store := collection.NewStore(name)
	svc, err := core.New(core.Config{
		ServerName: name, ServerAddr: addr, Transport: c.net,
		GDS: cli, Store: store, ContentWarmup: -1,
	})
	if err != nil {
		return err
	}
	c.closers = append(c.closers, svc)
	srv, err := greenstone.NewServer(greenstone.ServerConfig{
		Name: name, Addr: addr, Transport: c.net, Store: store, Alerting: svc,
	})
	if err != nil {
		return err
	}
	c.closers = append(c.closers, srv)
	for j := 0; j < c.w.Collections; j++ {
		if _, err := store.Add(collection.Config{Name: collName(j), Public: true}); err != nil {
			return err
		}
	}
	c.primary, err = replica.NewPrimary(replica.PrimaryConfig{
		Service: c.svcs[0], Transport: c.net, ListenAddr: "repl://" + name,
	})
	if err != nil {
		return err
	}
	c.standby, err = replica.NewStandby(replica.StandbyConfig{
		Service: svc, Transport: c.net, ListenAddr: "repl://" + name + "b",
		PrimaryAddr: "repl://" + name, GDS: cli,
	})
	if err != nil {
		return err
	}
	return c.standby.Join(ctx)
}

// attach registers the client's push notifier, the way a Greenstone server
// does on gs.attach-notifier.
func (c *cluster) attach(s *sub) {
	svc := c.svcs[s.server]
	rn := core.NewRemoteNotifier(svc.Name(), endpointAddr, c.net)
	if c.tr != nil {
		svc.RegisterNotifier(s.client, &tracedNotifier{inner: rn, tr: c.tr})
		return
	}
	svc.RegisterNotifier(s.client, rn)
}

// subscribe adds the sub's profile and returns how long the call blocked,
// in ms.
func (c *cluster) subscribe(s *sub) (float64, error) {
	sp := c.tr.begin(kindSubscribe, "", "", 0)
	start := time.Now()
	err := c.svcs[s.server].SubscribeProfile(s.prof)
	d := time.Since(start)
	c.tr.finish(sp, -1)
	return ms(d), err
}

// unsubscribe removes the sub's profile and returns how long the call
// blocked, in ms.
func (c *cluster) unsubscribe(s *sub) (float64, error) {
	sp := c.tr.begin(kindUnsubscribe, "", "", 0)
	start := time.Now()
	err := c.svcs[s.server].Unsubscribe(s.client, s.id)
	d := time.Since(start)
	c.tr.finish(sp, -1)
	return ms(d), err
}

// drain waits until every server's pipeline has delivered what it holds.
func (c *cluster) drain(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	for _, svc := range c.svcs {
		if err := svc.DrainDeliveries(ctx); err != nil {
			return fmt.Errorf("drain %s: %w", svc.Name(), err)
		}
	}
	return nil
}

// standbyDiverged compares the standby's replicated state with the
// primary's: the profile set and the pending mailboxes.
func (c *cluster) standbyDiverged() error {
	var a, b bytes.Buffer
	if err := c.svcs[0].SaveSubscriptions(&a); err != nil {
		return err
	}
	sb := c.standby.Service()
	if err := sb.SaveSubscriptions(&b); err != nil {
		return err
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		return errors.New("standby profile set differs from the primary's")
	}
	pm, sm := mailboxDigest(c.svcs[0].Delivery()), mailboxDigest(sb.Delivery())
	if !maps.Equal(pm, sm) {
		return fmt.Errorf("standby mailboxes differ from the primary's (%d vs %d clients)", len(sm), len(pm))
	}
	return nil
}

// mailboxDigest renders each client's pending mailbox as its sequence
// counter plus the (seq, profile, event) of every undelivered entry.
func mailboxDigest(p *delivery.Pipeline) map[string]string {
	out := make(map[string]string)
	for _, mb := range p.ExportMailboxes() {
		var b strings.Builder
		fmt.Fprintf(&b, "next=%d", mb.NextSeq)
		for _, e := range mb.Entries {
			fmt.Fprintf(&b, " %d:%s:%s", e.Seq, e.N.ProfileID, e.N.Event.ID)
		}
		out[mb.Client] = b.String()
	}
	return out
}

// close stops every component; the memory transport goes last.
func (c *cluster) close() {
	if c.primary != nil {
		_ = c.primary.Close()
	}
	if c.standby != nil {
		_ = c.standby.Close()
	}
	for _, s := range c.servers {
		_ = s.Close()
	}
	for _, s := range c.svcs {
		_ = s.Close()
	}
	for i := len(c.closers) - 1; i >= 0; i-- {
		_ = c.closers[i].Close()
	}
	for _, n := range c.nodes {
		_ = n.Close()
	}
	_ = c.mem.Close()
}
