// Command dperfd serves dPerf predictions over HTTP.
//
// It keeps a content-addressed trace-set store and the full prediction
// cache hierarchy hot across requests: one shared Predictor (platform
// identity, analytic certificates, scan tapes), a replay session pool
// (realized networks), and a response cache keyed by (trace-set digest,
// platform, spec). Every layer is stats-neutral, so a dperfd response is
// byte-identical to what the dperf CLI prints for the same inputs —
// warm or cold.
//
//	dperfd -addr 127.0.0.1:7077 -store /var/lib/dperfd
//
// Endpoints:
//
//	GET  /healthz                  liveness
//	GET  /v1/stats                 store/cache counters
//	POST /v1/tracesets             upload an artifact (binary or JSON)
//	GET  /v1/tracesets             list stored sets
//	GET  /v1/tracesets/{digest}    one set's stats
//	POST /v1/predict               {"digest": ..., "platform": ...}
//	POST /v1/sweep                 {"digest": ..., "platforms": [...]}
//	POST /v1/scan                  capacity grid over the fixed family
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/store"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "dperfd:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr *os.File) error {
	fs := flag.NewFlagSet("dperfd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:7077", "listen address (host:port; empty host binds 127.0.0.1)")
	dir := fs.String("store", "", "trace-set store directory (empty = in-memory only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	host, port, err := net.SplitHostPort(*addr)
	if err != nil {
		return fmt.Errorf("bad -addr %q: %w", *addr, err)
	}
	if host == "" {
		host = "127.0.0.1"
	}

	st, err := store.Open(*dir)
	if err != nil {
		return err
	}
	srv, err := newServer(st)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", net.JoinHostPort(host, port))
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv}

	// Serve until SIGINT/SIGTERM, then drain in-flight requests.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Fprintf(stdout, "dperfd: listening on %s (%d trace sets)\n", ln.Addr(), st.Len())

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return err
	}
	srv.pool.CloseIdle()
	fmt.Fprintln(stdout, "dperfd: shut down")
	return nil
}
