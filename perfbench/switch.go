package main

import (
	"context"
	"fmt"
	"net"
	"time"

	"ofmtl/internal/core"
	"ofmtl/internal/filterset"
	"ofmtl/internal/ofproto"
)

// Default switchd flags the rig reproduces (-cache, -megaflow,
// -flow-expiry, -read-timeout, -write-timeout).
const (
	cacheEntries    = 1 << 16
	megaflowEntries = 1 << 14
	expiryInterval  = time.Second
	readTimeout     = time.Minute
	writeTimeout    = 30 * time.Second
)

// rig is one switch brought up in-process and served on a loopback
// listener, with the benchmark's two controller connections.
type rig struct {
	p      *core.Pipeline
	srv    *ofproto.Server
	served chan error
	pkt    *ofproto.Client // packet batches
	ctl    *ofproto.Client // flow-mod batches
}

// bringUp starts the switch exactly as `switchd -mac gozb -route coza`
// does with its default flags, then dials both connections. The returned
// duration is the set-up time: filter generation, pipeline build, first
// snapshot publish, listen and dial.
func bringUp() (*rig, *filterset.MACFilter, *filterset.RouteFilter, time.Duration, error) {
	start := time.Now()
	mac, err := filterset.GenerateMAC("gozb", filterset.DefaultSeed)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	route, err := filterset.GenerateRoute("coza", filterset.DefaultSeed)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	p, err := core.BuildPrototypeWith(mac, route, "")
	if err != nil {
		return nil, nil, nil, 0, err
	}
	p.SetWorkers(0)
	p.SetCacheSize(cacheEntries)
	p.SetMegaflowSize(megaflowEntries)
	p.Refresh()
	p.StartExpiry(expiryInterval)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		p.StopExpiry()
		return nil, nil, nil, 0, fmt.Errorf("listening on loopback: %w", err)
	}
	rg := &rig{
		p:      p,
		srv:    ofproto.NewServerWithOptions(p, ofproto.ServerOptions{ReadTimeout: readTimeout, WriteTimeout: writeTimeout}),
		served: make(chan error, 1),
	}
	go func() { rg.served <- rg.srv.Serve(ln) }()
	addr := ln.Addr().String()
	if rg.pkt, err = ofproto.Dial(addr); err == nil {
		rg.ctl, err = ofproto.Dial(addr)
	}
	if err != nil {
		_ = rg.close()
		return nil, nil, nil, 0, fmt.Errorf("dialing the switch: %w", err)
	}
	return rg, mac, route, time.Since(start), nil
}

// close hangs up both connections, drains the server, waits for Serve to
// return and stops the expiry sweeper.
func (rg *rig) close() error {
	for _, c := range []*ofproto.Client{rg.pkt, rg.ctl} {
		if c != nil {
			_ = c.Close() // the server side is shut down next either way
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := rg.srv.Shutdown(ctx)
	<-rg.served
	rg.p.StopExpiry()
	if err != nil {
		return fmt.Errorf("shutting the switch down: %w", err)
	}
	return nil
}
