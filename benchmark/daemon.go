package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"genio/api"
	"genio/api/server"
	"genio/internal/persist"
	"genio/internal/pki"
)

// Files the loader and the daemon exchange through the run directory.
const (
	fixtureFile  = "fixture.json"
	identityFile = "identity.json"
	dataSubdir   = "data"
)

// runDaemon is `benchmark -daemon -dir <run dir>`: the child process
// every wire measurement talks to. It is cmd/geniod's run() with the
// benchmark's fixture in place of -demo: same platform options, same
// server.Options (platform CA, no AllowAnonymous), same http.Server.
// The CA is minted fresh on every boot, as in geniod, so each boot
// issues the loader a new identity.
func runDaemon(dir string) error {
	boot := time.Now()
	raw, err := os.ReadFile(filepath.Join(dir, fixtureFile))
	if err != nil {
		return err
	}
	var fx fixtureSpec
	if err := json.Unmarshal(raw, &fx); err != nil {
		return fmt.Errorf("fixture: %w", err)
	}
	wal, err := persist.OpenWAL(filepath.Join(dir, dataSubdir))
	if err != nil {
		return err
	}
	p, err := buildPlatform(&fx, wal)
	if err != nil {
		return err
	}
	id, err := p.CA.Issue(clientSubject, pki.RoleService)
	if err != nil {
		p.Close()
		return err
	}
	if err := api.SaveIdentity(filepath.Join(dir, identityFile), id); err != nil {
		p.Close()
		return err
	}
	srv := server.New(p, server.Options{CA: p.CA})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		p.Close()
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// The ready line is the loader's only view of the boot: address and
	// boot time.
	fmt.Printf("ready addr=%s boot_ms=%.3f\n", ln.Addr(), float64(time.Since(boot).Microseconds())/1e3)

	select {
	case err := <-serveErr:
		_ = srv.Shutdown(context.Background())
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark daemon: drain incomplete:", err)
	}
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		_ = httpSrv.Close()
	}
	return nil
}
