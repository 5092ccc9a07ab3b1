package core

// Far-edge compute: in GENIO, ONUs at customer premises carry low-end
// compute for workloads with ultra-low latency requirements (Figure 1).
// Far-edge deployments pass the same supply-chain and admission controls
// as edge deployments — the platform does not relax scrutiny for smaller
// hardware — but capacity is scarce and workloads are always soft-isolated
// (a single shared runtime per device).

import (
	"context"
	"errors"
	"fmt"

	"genio/internal/container"
	"genio/internal/orchestrator"
	"genio/internal/rbac"
	"genio/internal/sandbox"
)

// FarEdgeCapacity is the compute available on one ONU — deliberately small
// (the paper: "additional low-end computing resources").
var FarEdgeCapacity = orchestrator.Resources{CPUMilli: 1000, MemoryMB: 1024}

// FarEdgeWorkload is a workload running on an ONU.
type FarEdgeWorkload struct {
	Spec   orchestrator.WorkloadSpec
	Image  *container.Image
	Node   string // the OLT whose PON tree hosts the ONU
	Serial string // the ONU
}

// Errors for far-edge deployment.
var (
	ErrNoONU           = errors.New("core: onu not activated on this node")
	ErrFarEdgeCapacity = errors.New("core: onu capacity exhausted")
)

// farEdgeState tracks per-ONU deployments (keyed node/serial).
type farEdgeState struct {
	used      orchestrator.Resources
	workloads map[string]*FarEdgeWorkload
}

// DeployFarEdge schedules a workload onto a specific ONU. The pipeline
// mirrors DeployContext: RBAC, signature-verified pull, the admission
// chain, then ONU capacity. Isolation is forced to soft (no VMs on an
// ONU).
func (p *Platform) DeployFarEdge(subject, nodeName, serial string, spec orchestrator.WorkloadSpec) (*FarEdgeWorkload, error) {
	if p.closed.Load() {
		return nil, &ClosedError{Op: "deploy-far-edge"}
	}
	node, err := p.Node(nodeName)
	if err != nil {
		return nil, err
	}
	active := false
	for _, s := range node.OLT.ActiveONUs() {
		if s == serial {
			active = true
			break
		}
	}
	if !active {
		return nil, fmt.Errorf("%w: %s on %s", ErrNoONU, serial, nodeName)
	}
	if err := spec.CheckDemand(); err != nil {
		return nil, err
	}

	if p.Config.RBACEnabled && p.RBAC != nil {
		d := p.RBAC.Check(subject, rbac.Permission{Verb: "create", Resource: "workloads", Namespace: spec.Tenant})
		if !d.Allowed {
			return nil, &orchestrator.UnauthorizedError{Subject: subject, Verb: "create", Tenant: spec.Tenant}
		}
	}

	var img *container.Image
	if p.Config.VerifyImageSignatures {
		img, err = p.Registry.PullVerified(spec.ImageRef)
	} else {
		img, err = p.Registry.Pull(spec.ImageRef)
	}
	if err != nil {
		return nil, &orchestrator.ImagePullError{Ref: spec.ImageRef, Err: err}
	}

	// The default cluster's own admission chain and verdict cache, with
	// nothing reserved or scheduled on the cluster.
	if err := p.Cluster.Admit(context.TODO(), spec, img); err != nil {
		p.recordAdmissionIncidents(spec, err)
		return nil, err
	}

	spec.Isolation = orchestrator.IsolationSoft
	p.feMu.Lock()
	defer p.feMu.Unlock()
	if p.farEdge == nil {
		p.farEdge = make(map[string]*farEdgeState)
	}
	key := nodeName + "/" + serial
	st, ok := p.farEdge[key]
	if !ok {
		st = &farEdgeState{workloads: make(map[string]*FarEdgeWorkload)}
		p.farEdge[key] = st
	}
	if _, dup := st.workloads[spec.Name]; dup {
		return nil, &orchestrator.DuplicateNameError{Workload: spec.Name}
	}
	next := orchestrator.Resources{
		CPUMilli: st.used.CPUMilli + spec.Resources.CPUMilli,
		MemoryMB: st.used.MemoryMB + spec.Resources.MemoryMB,
	}
	if next.CPUMilli > FarEdgeCapacity.CPUMilli || next.MemoryMB > FarEdgeCapacity.MemoryMB {
		return nil, fmt.Errorf("%w: %s", ErrFarEdgeCapacity, serial)
	}
	st.used = next
	w := &FarEdgeWorkload{Spec: spec, Image: img, Node: nodeName, Serial: serial}
	st.workloads[spec.Name] = w
	if p.Config.SandboxEnabled {
		p.Enforcer.SetPolicy(spec.Name, sandbox.DefaultWorkloadPolicy())
	}
	return w, nil
}

// FarEdgeWorkloads lists deployments on one ONU.
func (p *Platform) FarEdgeWorkloads(nodeName, serial string) []*FarEdgeWorkload {
	p.feMu.Lock()
	defer p.feMu.Unlock()
	st, ok := p.farEdge[nodeName+"/"+serial]
	if !ok {
		return nil
	}
	out := make([]*FarEdgeWorkload, 0, len(st.workloads))
	for _, w := range st.workloads {
		out = append(out, w)
	}
	return out
}

// StopFarEdge removes a far-edge workload, releasing ONU capacity.
func (p *Platform) StopFarEdge(nodeName, serial, name string) error {
	p.feMu.Lock()
	defer p.feMu.Unlock()
	st, ok := p.farEdge[nodeName+"/"+serial]
	if !ok {
		return fmt.Errorf("%w: %s/%s", ErrNoONU, nodeName, serial)
	}
	w, ok := st.workloads[name]
	if !ok {
		return fmt.Errorf("%w: %s", orchestrator.ErrNotFound, name)
	}
	delete(st.workloads, name)
	st.used.CPUMilli -= w.Spec.Resources.CPUMilli
	st.used.MemoryMB -= w.Spec.Resources.MemoryMB
	return nil
}
