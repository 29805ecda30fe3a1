// Package sim provides the simulation substrate for the experiment suite:
// cluster assembly (GDS tree + Greenstone servers + alerting services over
// the deterministic memory transport), topology and workload generators, a
// ground-truth oracle, and the scenario runners behind every table in
// docs/EXPERIMENTS.md.
package sim

import (
	"context"
	"fmt"
	"time"

	"github.com/gsalert/gsalert/internal/core"
	"github.com/gsalert/gsalert/internal/gds"
	"github.com/gsalert/gsalert/internal/greenstone"
	"github.com/gsalert/gsalert/internal/node"
	"github.com/gsalert/gsalert/internal/transport"
)

// ClusterConfig shapes a simulated deployment.
type ClusterConfig struct {
	// Seed drives every random choice (reproducibility).
	Seed int64
	// GDSNodes is the number of directory nodes (>= 1).
	GDSNodes int
	// GDSBranching is the tree fan-out (>= 1).
	GDSBranching int
	// LinkLatency is the virtual per-hop latency (default 1ms).
	LinkLatency time.Duration
}

// Cluster is an assembled simulated deployment.
type Cluster struct {
	TR *transport.Memory
	// Inject wraps TR with a chaos rule set; every component the cluster
	// assembles sends through it (Net), so a fault schedule can degrade or
	// sever any slice of the traffic. With no rules armed it is a
	// passthrough.
	Inject *transport.FaultInjector
	// Net is the transport handed to assembled components (= Inject).
	Net   transport.Transport
	Nodes []*gds.Node

	servers   map[string]*node.Node
	standbys  []*node.Node
	notifiers map[string]map[string]*core.MemoryNotifier // server -> client -> sink
	nodeAddrs []string
}

// NewCluster builds the directory tree; servers are added with AddServer.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.GDSNodes < 1 {
		cfg.GDSNodes = 1
	}
	if cfg.GDSBranching < 1 {
		cfg.GDSBranching = 2
	}
	tr := transport.NewMemory(cfg.Seed)
	if cfg.LinkLatency > 0 {
		tr.SetDefaultLatency(cfg.LinkLatency)
	}
	inj := transport.NewFaultInjector(tr, cfg.Seed)
	c := &Cluster{
		TR:        tr,
		Inject:    inj,
		Net:       inj,
		servers:   make(map[string]*node.Node),
		notifiers: make(map[string]map[string]*core.MemoryNotifier),
	}
	ctx := context.Background()
	for i := 0; i < cfg.GDSNodes; i++ {
		id := fmt.Sprintf("gds%d", i)
		addr := "gds://" + id
		depth := treeDepth(i, cfg.GDSBranching)
		node, err := gds.NewNode(id, addr, depth+1, c.Net)
		if err != nil {
			return nil, err
		}
		c.Nodes = append(c.Nodes, node)
		c.nodeAddrs = append(c.nodeAddrs, addr)
		if i > 0 {
			parent := (i - 1) / cfg.GDSBranching
			if err := node.AttachToParent(ctx, c.Nodes[parent].ID(), c.nodeAddrs[parent]); err != nil {
				return nil, err
			}
		}
	}
	return c, nil
}

// treeDepth computes the depth of node i in a complete b-ary tree laid out
// in breadth-first order (node 0 is the root).
func treeDepth(i, b int) int {
	depth := 0
	for i > 0 {
		i = (i - 1) / b
		depth++
	}
	return depth
}

// Close shuts down all components.
func (c *Cluster) Close() {
	for _, n := range c.standbys {
		_ = n.Close()
	}
	for _, n := range c.servers {
		_ = n.Close()
	}
	for _, n := range c.Nodes {
		_ = n.Close()
	}
	_ = c.TR.Close()
}

// Settle drains every server's delivery pipeline, blocking until all
// enqueued notifications are delivered (or parked for detached clients).
// The memory transport runs handlers synchronously, so after a Build
// returns, every matching service has already enqueued — Settle is the only
// synchronisation experiments need before reading notification counts.
func (c *Cluster) Settle(ctx context.Context) {
	for _, name := range c.ServerNames() {
		_ = c.servers[name].Service.DrainDeliveries(ctx)
	}
}

// ServerAddr is the canonical transport address of a named server.
func ServerAddr(name string) string { return "gs://" + name }

// AddServer creates a Greenstone server with alerting, registered at the
// GDS node with index nodeIdx (-1 picks round-robin by current count).
func (c *Cluster) AddServer(name string, nodeIdx int) (*greenstone.Server, error) {
	return c.AddServerWith(name, nodeIdx, nil)
}

// AddServerWith is AddServer with a hook to adjust the assembled core
// configuration before the service is built (experiments inject QoS
// controllers or delivery-pipeline settings).
func (c *Cluster) AddServerWith(name string, nodeIdx int, mutate func(*core.Config)) (*greenstone.Server, error) {
	if _, dup := c.servers[name]; dup {
		return nil, fmt.Errorf("sim: server %q already exists", name)
	}
	if nodeIdx < 0 {
		nodeIdx = len(c.servers) % len(c.Nodes)
	}
	if nodeIdx >= len(c.Nodes) {
		return nil, fmt.Errorf("sim: node index %d out of range", nodeIdx)
	}
	n, err := c.newNode(node.Config{
		Core:    core.Config{ServerName: name, ServerAddr: ServerAddr(name)},
		GDSAddr: c.nodeAddrs[nodeIdx],
	}, mutate)
	if err != nil {
		return nil, err
	}
	if err := n.Register(context.Background()); err != nil {
		_ = n.Close()
		return nil, err
	}
	c.servers[name] = n
	c.notifiers[name] = make(map[string]*core.MemoryNotifier)
	return n.Server, nil
}

// ReplicaAddr is the replication endpoint of a server's primary role.
func ReplicaAddr(name string) string { return "repl://" + name }

// StandbyReplicaAddr is the replication endpoint of a server's standby.
func StandbyReplicaAddr(name string) string { return "repl://" + name + "b" }

// AddStandby gives the named server a hot standby: the server starts
// accepting a standby at ReplicaAddr(name), and a passive copy carrying the
// same name — at ServerAddr(name+"b"), registered nowhere until promotion,
// on the primary's directory node — waits for the stream at
// StandbyReplicaAddr(name). mutate adjusts the standby's core
// configuration. The caller joins it (Standby.Join) when the scenario
// wants the snapshot taken; Close shuts it down with the cluster.
func (c *Cluster) AddStandby(name string, mutate func(*core.Config)) (*node.Node, error) {
	p := c.servers[name]
	if p == nil {
		return nil, fmt.Errorf("sim: unknown server %q", name)
	}
	if err := p.ServePrimary(ReplicaAddr(name)); err != nil {
		return nil, err
	}
	sb, err := c.newNode(node.Config{
		Core:          core.Config{ServerName: name, ServerAddr: ServerAddr(name + "b")},
		GDSAddr:       p.GDS.NodeAddr(),
		ReplicaListen: StandbyReplicaAddr(name),
		ReplicaOf:     ReplicaAddr(name),
	}, mutate)
	if err != nil {
		return nil, err
	}
	c.standbys = append(c.standbys, sb)
	return sb, nil
}

// newNode assembles a server on the cluster transport; mutate adjusts its
// core configuration.
func (c *Cluster) newNode(cfg node.Config, mutate func(*core.Config)) (*node.Node, error) {
	cfg.Core.Transport = c.Net
	// The memory transport delivers synchronously, so content-routing
	// tables are warm the moment an advertisement returns: no flood
	// warm-up window needed.
	cfg.Core.ContentWarmup = -1
	if mutate != nil {
		mutate(&cfg.Core)
	}
	return node.New(cfg)
}

// Resolve looks up a server name through another server's directory client
// (the DNS-like naming service of paper §4.1).
func (c *Cluster) Resolve(ctx context.Context, from, target string) (string, error) {
	n := c.servers[from]
	if n == nil {
		return "", fmt.Errorf("sim: unknown server %q", from)
	}
	return n.GDS.Resolve(ctx, target)
}

// Server returns a server by name (nil when unknown).
func (c *Cluster) Server(name string) *greenstone.Server {
	if n := c.servers[name]; n != nil {
		return n.Server
	}
	return nil
}

// Service returns a server's alerting service (nil when unknown).
func (c *Cluster) Service(name string) *core.Service {
	if n := c.servers[name]; n != nil {
		return n.Service
	}
	return nil
}

// ServerNames lists servers in insertion-independent sorted order.
func (c *Cluster) ServerNames() []string {
	out := make([]string, 0, len(c.servers))
	for n := range c.servers {
		out = append(out, n)
	}
	sortStrings(out)
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Notifier returns (creating on demand) the recording sink for a client at
// a server, registering it with the alerting service.
func (c *Cluster) Notifier(server, client string) *core.MemoryNotifier {
	sinks := c.notifiers[server]
	if sinks == nil {
		sinks = make(map[string]*core.MemoryNotifier)
		c.notifiers[server] = sinks
	}
	sink, ok := sinks[client]
	if !ok {
		sink = core.NewMemoryNotifier()
		sinks[client] = sink
		if svc := c.Service(server); svc != nil {
			svc.RegisterNotifier(client, sink)
		}
	}
	return sink
}

// Notifications returns every notification recorded for a client at a
// server.
func (c *Cluster) Notifications(server, client string) []core.Notification {
	if sinks := c.notifiers[server]; sinks != nil {
		if sink := sinks[client]; sink != nil {
			return sink.All()
		}
	}
	return nil
}

// FlushRetries flushes every server's retry queue (after healing a
// partition), returning total deliveries.
func (c *Cluster) FlushRetries(ctx context.Context) int {
	total := 0
	for _, name := range c.ServerNames() {
		total += c.servers[name].Service.Retry().Flush(ctx, true)
	}
	return total
}

// PartitionServers cuts the GS-network link between two servers (their
// direct server-to-server traffic). GDS connectivity is unaffected. The
// memory transport identifies the sender by its logical name and the
// receiver by its address, so both directed pairs are cut.
func (c *Cluster) PartitionServers(a, b string) {
	c.TR.Partition(a, ServerAddr(b))
	c.TR.Partition(b, ServerAddr(a))
}

// HealServers restores the link between two servers.
func (c *Cluster) HealServers(a, b string) {
	c.TR.Heal(a, ServerAddr(b))
	c.TR.Heal(b, ServerAddr(a))
}

// PartitionGDSLink cuts the directory link between two GDS nodes (by node
// id, e.g. "gds0"), severing the subtree below the lower node from the
// rest of the tree: flooded events and upward registrations crossing the
// link are blocked (best-effort delivery — the paper's §6 GDS loses them).
func (c *Cluster) PartitionGDSLink(a, b string) {
	c.TR.Partition(a, "gds://"+b)
	c.TR.Partition(b, "gds://"+a)
}

// HealGDSLink restores a directory link cut by PartitionGDSLink.
func (c *Cluster) HealGDSLink(a, b string) {
	c.TR.Heal(a, "gds://"+b)
	c.TR.Heal(b, "gds://"+a)
}

// IsolateServer cuts a server off the entire network (both GS and GDS
// traffic), modelling a solitary disconnected installation. Both the
// transport address (inbound) and the logical name (outbound sender) are
// marked down.
func (c *Cluster) IsolateServer(name string, isolated bool) {
	c.TR.SetNodeDown(ServerAddr(name), isolated)
	c.TR.SetNodeDown(name, isolated)
}

// NewReceptionist builds a receptionist connected to the named hosts.
func (c *Cluster) NewReceptionist(name string, hosts ...string) *greenstone.Receptionist {
	r := greenstone.NewReceptionist(name, c.TR)
	for _, h := range hosts {
		r.Connect(h, ServerAddr(h))
	}
	return r
}

// RemoteNotifier builds a notifier that pushes MsgNotify envelopes from a
// server to a client address over the cluster transport.
func (c *Cluster) RemoteNotifier(server, clientAddr string) core.Notifier {
	return core.NewRemoteNotifier(server, clientAddr, c.Net)
}
