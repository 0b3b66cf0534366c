// Command ivmnode runs one worker node daemon: an empty chunk store served
// over the cluster's TCP framing protocol. A coordinator (viewctl
// -distributed, or any program using a transport.TCPFabric) connects to a
// set of these and drives loads, transfers, joins, and merges against them.
//
// Usage:
//
//	ivmnode -listen :7070
//	ivmnode -listen 127.0.0.1:0 -idle-timeout 10m
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/arrayview/arrayview/internal/obs"
	"github.com/arrayview/arrayview/internal/storage"
	"github.com/arrayview/arrayview/internal/transport"
)

func main() {
	var (
		listen       = flag.String("listen", ":7070", "listen address (host:port; :0 picks a free port)")
		idleTimeout  = flag.Duration("idle-timeout", 5*time.Minute, "close connections idle for this long (0 disables)")
		writeTimeout = flag.Duration("write-timeout", 30*time.Second, "per-response write deadline (0 disables)")
		statsEvery   = flag.Duration("stats", 0, "periodically print store stats (0 disables)")
		metrics      = flag.String("metrics", "", "serve JSON metrics over HTTP on this address (host:port; empty disables)")
	)
	flag.Parse()

	if err := run(*listen, *metrics, *idleTimeout, *writeTimeout, *statsEvery); err != nil {
		fmt.Fprintln(os.Stderr, "ivmnode:", err)
		os.Exit(1)
	}
}

func run(listen, metrics string, idleTimeout, writeTimeout, statsEvery time.Duration) error {
	cfg := &transport.ServerConfig{IdleTimeout: idleTimeout, WriteTimeout: writeTimeout}
	if idleTimeout == 0 {
		cfg.IdleTimeout = -1
	}
	if writeTimeout == 0 {
		cfg.WriteTimeout = -1
	}
	store := storage.NewStore()
	srv := transport.NewNodeServer(store, cfg)
	if err := srv.Listen(listen); err != nil {
		return err
	}
	fmt.Printf("ivmnode: serving on %s\n", srv.Addr())

	if metrics != "" {
		ms, err := obs.StartMetrics(metrics, func() any { return srv.Stats() })
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		defer ms.Close()
		fmt.Printf("ivmnode: metrics on http://%s\n", ms.Addr())
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	var ticker *time.Ticker
	var tick <-chan time.Time
	if statsEvery > 0 {
		ticker = time.NewTicker(statsEvery)
		tick = ticker.C
		defer ticker.Stop()
	}
	for {
		select {
		case <-tick:
			fmt.Printf("ivmnode: %d chunks, %d bytes\n", store.NumChunks(), store.Bytes())
		case sig := <-stop:
			// Graceful: stop accepting, give in-flight requests a grace
			// window to finish and their responses to flush, then close.
			fmt.Printf("ivmnode: %v, draining\n", sig)
			srv.Drain(2 * time.Second)
			return srv.Close()
		}
	}
}
