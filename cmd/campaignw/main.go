// Command campaignw is a campaign worker: it serves shard-execution
// requests from a campaignd coordinator over HTTP and checks the
// resulting artifact back in. Workers are stateless — every job carries
// the full resolved runner options, and scenario references resolve
// against this binary's own registries, so any campaignw built from the
// same tree as its coordinator produces byte-identical results.
//
// Usage:
//
//	campaignw [flags]
//
// Examples:
//
//	campaignw -listen 127.0.0.1:9301
//	campaignw -listen 127.0.0.1:0 -port-file /tmp/w1.port
//	campaignw -fault "kill:nth=2" -listen 127.0.0.1:0 -port-file /tmp/w2.port
//
// Flags:
//
//	-listen addr     address to serve on (default 127.0.0.1:0)
//	-port-file file  write the bound port here once listening (for
//	                 scripts that start workers on :0)
//	-id name         worker id in logs and check-ins (default host-pid)
//	-workers n       local scenario pool size (default GOMAXPROCS)
//	-fault plan      deterministic fault injection: semicolon-separated
//	                 "kind:nth=N[,ms=M]" rules, kinds kill, drop, delay,
//	                 corrupt; e.g. "drop:nth=1;delay:nth=3,ms=5000"
//	-q               suppress progress logs
//
// SIGINT/SIGTERM drain gracefully: the worker answers 503 on
// /v1/healthz and /v1/run, finishes in-flight shards, then exits 0. A
// "kill" fault exits 137 mid-shard, the way an OOM-killed or preempted
// worker would.
//
// Exit codes follow the harness convention (README, "Exit codes"),
// with 0 on clean shutdown and 137 when a kill fault fires.
package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/cli"
	"repro/internal/dist"
)

func main() { cli.Main("campaignw", run) }

func run(c *cli.Cmd, args []string) error {
	fs := c.FlagSet()
	listen := fs.String("listen", "127.0.0.1:0", "address to serve on")
	portFile := fs.String("port-file", "", "write the bound port to this file once listening")
	id := fs.String("id", "", "worker id in logs and check-ins (default host-pid)")
	workers := fs.Int("workers", 0, "local scenario pool size (0 = GOMAXPROCS)")
	faultSpec := fs.String("fault", "", "fault plan: \"kind:nth=N[,ms=M];...\" (kinds: kill, drop, delay, corrupt)")
	quiet := fs.Bool("q", false, "suppress progress logs")
	if err := c.Parse(fs, args); err != nil {
		return err
	}
	if err := cli.NoArgs(fs); err != nil {
		return err
	}
	plan, err := dist.ParseFaultPlan(*faultSpec)
	if err != nil {
		return cli.Usagef("%v", err)
	}
	if *id == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		*id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	logf := func(format string, args ...any) {
		if !*quiet {
			c.Logf(format, args...)
		}
	}

	w := dist.NewWorker(dist.WorkerOpts{
		ID:      *id,
		Workers: *workers,
		Fault:   plan,
		Kill: func() {
			// A kill fault models sudden worker death: no drain, no
			// response, exit the way a SIGKILLed process reports.
			c.Logf("%s: kill fault fired, dying mid-shard", *id)
			os.Exit(137)
		},
		Logf: logf,
	})

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	if *portFile != "" {
		port := ln.Addr().(*net.TCPAddr).Port
		if err := os.WriteFile(*portFile, []byte(fmt.Sprintf("%d\n", port)), 0o644); err != nil {
			return err
		}
	}
	srv := &http.Server{Handler: w.Handler()}

	done := make(chan struct{})
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		logf("%s: draining (finishing in-flight shards, refusing new ones)", *id)
		w.Drain()
		srv.Shutdown(context.Background())
		close(done)
	}()

	logf("%s: listening on %s (faults: %s)", *id, ln.Addr(), plan)
	if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
		return err
	}
	<-done
	logf("%s: drained, exiting", *id)
	return nil
}
