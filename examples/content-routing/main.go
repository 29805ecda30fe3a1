// Content routing walkthrough: a three-node GDS tree over real HTTP
// sockets, three Greenstone servers in content-routing mode. London
// subscribes to Hamilton's rebuild summaries only; Berlin subscribes to
// nothing. The example prints the digest tables the directory nodes
// learned, then rebuilds Hamilton's collection and shows that the rebuild
// summary reaches London while the per-document events — and Berlin —
// are pruned at the directory. See docs/ROUTING.md for the mechanics.
//
//	go run ./examples/content-routing
package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"time"

	"github.com/gsalert/gsalert/internal/collection"
	"github.com/gsalert/gsalert/internal/core"
	"github.com/gsalert/gsalert/internal/gds"
	"github.com/gsalert/gsalert/internal/node"
	"github.com/gsalert/gsalert/internal/profile"
	"github.com/gsalert/gsalert/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "content-routing: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	tr := transport.NewHTTP()
	defer func() { _ = tr.Close() }()

	// 1. A small directory tree: one root, two leaves.
	root, err := gds.NewNode("gds-root", "127.0.0.1:27001", 1, tr)
	if err != nil {
		return err
	}
	defer func() { _ = root.Close() }()
	var leaves []*gds.Node
	for i, addr := range []string{"127.0.0.1:27002", "127.0.0.1:27003"} {
		leaf, err := gds.NewNode(fmt.Sprintf("gds-leaf%d", i+1), addr, 2, tr)
		if err != nil {
			return err
		}
		defer func() { _ = leaf.Close() }()
		if err := leaf.AttachToParent(ctx, root.ID(), root.Addr()); err != nil {
			return err
		}
		leaves = append(leaves, leaf)
	}

	// 2. Three servers in content-routing mode: Hamilton and Berlin on
	// leaf 1, London on leaf 2.
	servers := make(map[string]*node.Node, 3)
	for _, cfg := range []struct{ name, addr, gdsAddr string }{
		{"Hamilton", "127.0.0.1:28001", leaves[0].Addr()},
		{"Berlin", "127.0.0.1:28002", leaves[0].Addr()},
		{"London", "127.0.0.1:28003", leaves[1].Addr()},
	} {
		n, err := node.New(node.Config{
			Core: core.Config{
				ServerName: cfg.name, ServerAddr: cfg.addr, Transport: tr,
				// The walkthrough publishes immediately after subscribing;
				// skip the flood warm-up so the pruning is visible right away.
				ContentWarmup: -1,
			},
			GDSAddr: cfg.gdsAddr,
		})
		if err != nil {
			return err
		}
		defer func() { _ = n.Close() }()
		if err := n.Register(ctx); err != nil {
			return err
		}
		if err := n.Service.SetRoutingMode(ctx, core.RouteContent); err != nil {
			return err
		}
		servers[cfg.name] = n
	}

	// 3. London wants only rebuild summaries of Hamilton.D; Berlin wants
	// nothing (it advertised the empty digest when entering content mode).
	notified := make(chan core.Notification, 16)
	servers["London"].Service.RegisterNotifier("alice", core.NotifierFunc(func(n core.Notification) {
		notified <- n
	}))
	if _, err := servers["London"].Service.Subscribe("alice", profile.MustParse(
		`collection = "Hamilton.D" AND event.type = "collection-rebuilt"`)); err != nil {
		return err
	}

	// 4. The digest tables the directory learned from the advertisements.
	printTables := func() {
		for _, n := range append([]*gds.Node{root}, leaves...) {
			snap := n.Snapshot()
			fmt.Printf("  %s:\n", snap.ID)
			links := make([]string, 0, len(snap.Digests))
			for link := range snap.Digests {
				links = append(links, link)
			}
			sort.Strings(links)
			for _, link := range links {
				d := snap.Digests[link]
				if len(d) == 0 {
					fmt.Printf("    %-10s -> (no interests, pruned)\n", link)
					continue
				}
				fmt.Printf("    %-10s -> %v\n", link, d)
			}
		}
	}
	fmt.Println("routing tables after advertisement propagation:")
	printTables()

	// 5. Build twice: the first build emits collection-built (not
	// subscribed), the rebuild emits collection-rebuilt + documents-changed.
	docs := func(rev int) []*collection.Document {
		return []*collection.Document{
			{ID: "d1", Content: fmt.Sprintf("whale songs, revision %d", rev)},
			{ID: "d2", Content: "a steady document"},
		}
	}
	if _, err := servers["Hamilton"].Server.AddCollection(ctx, collection.Config{Name: "D", Public: true}); err != nil {
		return err
	}
	if _, _, err := servers["Hamilton"].Server.Build(ctx, "D", docs(0)); err != nil {
		return err
	}
	if _, _, err := servers["Hamilton"].Server.Build(ctx, "D", docs(1)); err != nil {
		return err
	}
	if err := servers["Hamilton"].Service.DrainDeliveries(ctx); err != nil {
		return err
	}

	select {
	case n := <-notified:
		fmt.Printf("\nLondon notified: %s %s (docs %v)\n", n.Event.Type, n.Event.Collection, n.DocIDs)
	case <-time.After(5 * time.Second):
		return fmt.Errorf("London never received the rebuild summary")
	}

	// 6. What the directory pruned: Hamilton published three events, only
	// the matching one reached London's server, none reached Berlin.
	time.Sleep(200 * time.Millisecond) // let the last HTTP one-ways land
	published := servers["Hamilton"].Service.Stats().EventsPublished
	fmt.Printf("\nHamilton published %d events (built, rebuilt, documents-changed)\n", published)
	for _, name := range []string{"London", "Berlin"} {
		st := servers[name].Service.Stats()
		fmt.Printf("%-8s received %d event(s) from the directory\n", name, st.EventsReceived)
	}
	fmt.Println("\nthe rebuild summary descended only into London's subtree;")
	fmt.Println("per-document events and Berlin's branch were pruned by digest covering")
	return nil
}
