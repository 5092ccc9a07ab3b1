// SIEM: a security-operations exporter built on the v2 control-plane
// API. It consumes the platform exactly like an external SIEM would —
// a lifecycle Watch for workload state (terminal states only), plus a
// spine subscription for incidents and control-plane audit records —
// and emits normalized JSON-line records, correlating each terminal
// deployment with the incidents its admission scan raised.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"sync"

	"genio"
	"genio/internal/container"
	"genio/internal/rbac"
)

// record is the exporter's normalized output shape.
type record struct {
	Kind     string `json:"kind"` // lifecycle | incident | audit
	Workload string `json:"workload,omitempty"`
	State    string `json:"state,omitempty"`
	Node     string `json:"node,omitempty"`
	Source   string `json:"source,omitempty"`
	Detail   string `json:"detail,omitempty"`
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	p, err := genio.NewPlatform(genio.SecureConfig())
	if err != nil {
		return err
	}
	defer p.Close()
	if _, err := p.AddEdgeNode("olt-01", genio.Resources{CPUMilli: 16000, MemoryMB: 32768}); err != nil {
		return err
	}

	pub, err := container.NewPublisher("acme")
	if err != nil {
		return err
	}
	p.Registry.TrustPublisher("acme", pub.PublicKey())
	for _, img := range []*container.Image{
		container.AnalyticsImage(),
		container.IoTGatewayImage(),
		container.CryptominerImage(),
	} {
		sig := pub.Sign(img)
		p.Registry.Push(img, &sig)
	}
	p.RBAC.SetRole(rbac.Role{Name: "deployer", Permissions: []rbac.Permission{
		{Verb: "create", Resource: "workloads", Namespace: "acme"},
	}})
	if err := p.RBAC.Bind("ci", "deployer"); err != nil {
		return err
	}

	// Incident export rides a plain spine subscription; the exporter
	// buffers under its own lock because handlers run on the spine's
	// delivery goroutine.
	var mu sync.Mutex
	var exported []record
	sub, err := p.Subscribe("siem-incidents", []genio.Topic{genio.TopicIncident},
		func(batch []genio.Event) {
			mu.Lock()
			defer mu.Unlock()
			for _, e := range batch {
				if inc, ok := e.Payload.(genio.Incident); ok {
					exported = append(exported, record{Kind: "incident",
						Workload: inc.Workload, Source: inc.Source, Detail: inc.Detail})
				}
			}
		})
	if err != nil {
		return err
	}
	defer sub.Cancel()

	// Workload state rides the lifecycle Watch: terminal transitions
	// only — a SIEM cares what happened, not what is in flight.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	lifecycle, err := p.Watch(ctx, genio.WatchSelector{TerminalOnly: true})
	if err != nil {
		return err
	}

	// Drive a mixed batch: one clean app, one SAST-flagged build, one
	// signed cryptominer — three terminal events, each typed.
	specs := []genio.WorkloadSpec{
		{Name: "web", Tenant: "acme", ImageRef: "acme/analytics:2.0.1",
			Isolation: genio.IsolationSoft, Resources: genio.Resources{CPUMilli: 200, MemoryMB: 256}},
		{Name: "gateway", Tenant: "acme", ImageRef: "acme/iot-gateway:1.4.2",
			Isolation: genio.IsolationSoft, Resources: genio.Resources{CPUMilli: 200, MemoryMB: 256}},
		{Name: "miner", Tenant: "acme", ImageRef: "freestuff/optimizer:latest",
			Isolation: genio.IsolationSoft, Resources: genio.Resources{CPUMilli: 200, MemoryMB: 256}},
	}
	go p.DeployBatchContext(context.Background(), "ci", specs)

	for terminals := 0; terminals < len(specs); terminals++ {
		ev := <-lifecycle
		mu.Lock()
		exported = append(exported, record{Kind: "lifecycle",
			Workload: ev.Workload, State: string(ev.State), Node: ev.Node, Detail: ev.Detail})
		mu.Unlock()
	}

	p.Flush() // incident export is complete once the spine drains
	mu.Lock()
	defer mu.Unlock()
	for _, r := range exported {
		js, err := json.Marshal(r)
		if err != nil {
			return err
		}
		fmt.Println(string(js))
	}
	fmt.Printf("exported %d records\n", len(exported))
	return nil
}
