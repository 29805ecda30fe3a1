// Quickstart: one GDS node and one Greenstone server over real HTTP
// sockets. A user subscribes to a collection, the collection is built and
// rebuilt, and the notifications arrive.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"github.com/gsalert/gsalert/internal/collection"
	"github.com/gsalert/gsalert/internal/core"
	"github.com/gsalert/gsalert/internal/gds"
	"github.com/gsalert/gsalert/internal/greenstone"
	"github.com/gsalert/gsalert/internal/node"
	"github.com/gsalert/gsalert/internal/profile"
	"github.com/gsalert/gsalert/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "quickstart: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	tr := transport.NewHTTP()
	defer func() { _ = tr.Close() }()

	// 1. A directory node (stratum 1 primary).
	dir, err := gds.NewNode("gds-root", "127.0.0.1:17001", 1, tr)
	if err != nil {
		return err
	}
	defer func() { _ = dir.Close() }()

	// 2. A Greenstone server with alerting, registered at the directory.
	const serverAddr = "127.0.0.1:18001"
	hamilton, err := node.New(node.Config{
		Core:    core.Config{ServerName: "Hamilton", ServerAddr: serverAddr, Transport: tr},
		GDSAddr: dir.Addr(),
	})
	if err != nil {
		return err
	}
	defer func() { _ = hamilton.Close() }()
	if err := hamilton.Register(ctx); err != nil {
		return err
	}
	fmt.Println("Hamilton registered with the GDS over HTTP")
	svc, srv := hamilton.Service, hamilton.Server

	// 3. alice subscribes to music documents in Hamilton.Recordings.
	notifications := core.NewMemoryNotifier()
	svc.RegisterNotifier("alice", notifications)
	profileID, err := svc.Subscribe("alice", profile.MustParse(
		`collection = "Hamilton.Recordings" AND dc.Title contains "music"`))
	if err != nil {
		return err
	}
	fmt.Printf("alice subscribed with profile %s\n", profileID)

	// 4. Build the collection: the matching document triggers an alert.
	if _, err := srv.AddCollection(ctx, collection.Config{
		Name: "Recordings", Title: "Field Recordings", Public: true,
		IndexFields: []string{"dc.Title"},
	}); err != nil {
		return err
	}
	docs := []*collection.Document{
		{ID: "r1", Metadata: map[string][]string{"dc.Title": {"Music of the Pacific"}},
			Content: "waiata and pacific island music recordings"},
		{ID: "r2", Metadata: map[string][]string{"dc.Title": {"Bird calls"}},
			Content: "dawn chorus recordings"},
	}
	if _, _, err := srv.Build(ctx, "Recordings", docs); err != nil {
		return err
	}

	// 5. Rebuild with a new matching document.
	docs = append(docs, &collection.Document{
		ID:       "r3",
		Metadata: map[string][]string{"dc.Title": {"More music from the archive"}},
		Content:  "newly digitised music",
	})
	if _, _, err := srv.Build(ctx, "Recordings", docs); err != nil {
		return err
	}
	// Delivery is asynchronous (sharded pipeline); settle before reading.
	if err := svc.DrainDeliveries(ctx); err != nil {
		return err
	}

	// 6. Show what alice received.
	fmt.Printf("\nalice received %d notifications:\n", notifications.Len())
	for _, n := range notifications.All() {
		fmt.Printf("  %-20s about %s (docs: %v)\n", n.Event.Type, n.Event.Collection, n.DocIDs)
	}

	// 7. Interactive search through a receptionist, same retrieval engine
	// the profile used (alerting as continuous searching, paper §5).
	recep := greenstone.NewReceptionist("recep", tr)
	recep.Connect("Hamilton", serverAddr)
	res, err := recep.Search(ctx, "Hamilton", "Recordings", "music", "", 10, false)
	if err != nil {
		return err
	}
	fmt.Printf("\ninteractive search for \"music\": %d hits\n", res.Total)
	for _, h := range res.Hits {
		fmt.Printf("  %s %.4f %s\n", h.DocID, h.Score, h.Title)
	}
	return nil
}
