// Package node assembles the paper's unit of deployment: one Greenstone
// server with the alerting service built in, named in a GDS directory
// (§3–4). It is the only code that wires a directory client, collection
// store, core.Service and greenstone.Server together, plus the replication
// role a server plays (primary or hot standby, docs/REPLICATION.md) and
// the ops plane of a server process (ops.go). The binaries, the simulated
// cluster behind the experiments and the examples all build servers here.
//
// Registration and a standby's Join stay explicit calls, so each caller
// keeps its own failure policy: gs-server continues solitary or retries,
// the simulations fail fast.
package node

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"github.com/gsalert/gsalert/internal/collection"
	"github.com/gsalert/gsalert/internal/core"
	"github.com/gsalert/gsalert/internal/gds"
	"github.com/gsalert/gsalert/internal/greenstone"
	"github.com/gsalert/gsalert/internal/health"
	"github.com/gsalert/gsalert/internal/replica"
	"github.com/gsalert/gsalert/internal/transport"
)

// Config assembles one server.
type Config struct {
	// Core configures the alerting service. Its ServerName, ServerAddr and
	// Transport identify the whole server; New fills in GDS and Store.
	Core core.Config
	// GDSAddr is the directory node the server registers with.
	GDSAddr string
	// ReplicaListen is the server's replication endpoint. Alone it makes
	// the server a primary that accepts a standby there.
	ReplicaListen string
	// ReplicaOf makes the server a standby of the primary whose
	// replication endpoint it names (requires ReplicaListen): it inherits
	// the server name, stays unregistered and passive, and serves only
	// after promotion.
	ReplicaOf string
}

// Node is one assembled server.
type Node struct {
	GDS     *gds.Client
	Store   *collection.Store
	Service *core.Service
	Server  *greenstone.Server
	// Primary is set on a server that accepts a standby; Standby on a
	// standby. At most one of the two is non-nil.
	Primary *replica.Primary
	Standby *replica.Standby

	tr         transport.Transport
	registered atomic.Bool
}

// New assembles the server cfg describes. The server listens on
// cfg.Core.ServerAddr when New returns but is registered nowhere yet.
func New(cfg Config) (*Node, error) {
	if cfg.ReplicaOf != "" && cfg.ReplicaListen == "" {
		return nil, errors.New("node: a standby (ReplicaOf) needs a replication endpoint (ReplicaListen)")
	}
	c := cfg.Core
	n := &Node{
		GDS:   gds.NewClient(c.ServerName, c.ServerAddr, cfg.GDSAddr, c.Transport),
		Store: collection.NewStore(c.ServerName),
		tr:    c.Transport,
	}
	c.GDS, c.Store = n.GDS, n.Store
	var err error
	if n.Service, err = core.New(c); err != nil {
		return nil, err
	}
	n.Server, err = greenstone.NewServer(greenstone.ServerConfig{
		Name:      c.ServerName,
		Addr:      c.ServerAddr,
		Transport: c.Transport,
		Store:     n.Store,
		Alerting:  n.Service,
		Resolver:  n.GDS,
	})
	if err != nil {
		_ = n.Service.Close()
		return nil, err
	}
	switch {
	case cfg.ReplicaOf != "":
		n.Standby, err = replica.NewStandby(replica.StandbyConfig{
			Service:     n.Service,
			Transport:   c.Transport,
			ListenAddr:  cfg.ReplicaListen,
			PrimaryAddr: cfg.ReplicaOf,
			GDS:         n.GDS,
			Tracer:      c.Tracer,
			Log:         c.Log.Recorder().For("replica"),
		})
	case cfg.ReplicaListen != "":
		err = n.ServePrimary(cfg.ReplicaListen)
	}
	if err != nil {
		_ = n.Close()
		return nil, err
	}
	return n, nil
}

// ServePrimary makes a serving server a primary: it accepts a standby's
// join at listen and from then on streams every state change to it.
func (n *Node) ServePrimary(listen string) error {
	if n.Primary != nil || n.Standby != nil {
		return fmt.Errorf("node: %s already has a replication role", n.Service.Name())
	}
	p, err := replica.NewPrimary(replica.PrimaryConfig{
		Service:    n.Service,
		Transport:  n.tr,
		ListenAddr: listen,
	})
	if err != nil {
		return err
	}
	n.Primary = p
	return nil
}

// Register registers the server's name with its directory node, recording
// success for the gds-registered readiness check.
func (n *Node) Register(ctx context.Context) error {
	if err := n.GDS.Register(ctx); err != nil {
		return err
	}
	n.registered.Store(true)
	return nil
}

// GDSRegistered is the gds-registered readiness check: a serving server is
// ready once Register has succeeded. A standby passes: the primary owns
// the name while it stands by, and promotion registers the name itself.
func (n *Node) GDSRegistered() error {
	if n.Standby == nil && !n.registered.Load() {
		return errors.New("not registered with the GDS")
	}
	return nil
}

// StandbyCaughtUp is the standby-caught-up readiness check: a standby is
// ready once it has applied a snapshot and its last probe reached the
// primary; after promotion it passes and the serving-side checks take
// over. Servers without a standby role always pass.
func (n *Node) StandbyCaughtUp() error {
	sb := n.Standby
	if sb == nil || sb.Promoted() {
		return nil
	}
	if !sb.Synced() {
		return errors.New("standby has not applied a snapshot")
	}
	if err := sb.ProbeErr(); err != nil {
		return fmt.Errorf("primary unreachable: %w", err)
	}
	return nil
}

// Close stops the replication role, the protocol server and the alerting
// service (which flushes and closes its delivery pipeline), returning their
// errors joined.
func (n *Node) Close() error {
	var errs []error
	if n.Standby != nil {
		errs = append(errs, n.Standby.Close())
	}
	if n.Primary != nil {
		errs = append(errs, n.Primary.Close())
	}
	errs = append(errs, n.Server.Close(), n.Service.Close())
	return errors.Join(errs...)
}

// AlertOnTransition returns the health engine hook that dogfoods every
// component state transition into svc's pipeline as a health-alert event
// (docs/HEALTH.md). A failed publish is handed to onErr.
func AlertOnTransition(svc *core.Service, onErr func(error)) func(health.Transition) {
	return func(tr health.Transition) {
		err := svc.PublishHealthAlert(context.TODO(), core.HealthAlert{
			Component: tr.Component,
			From:      tr.From.String(),
			To:        tr.To.String(),
			Rule:      tr.Rule,
			Severity:  tr.Severity,
			Value:     tr.Value,
			At:        tr.At,
		})
		if err != nil {
			onErr(err)
		}
	}
}
