// Package client is the control-plane client behind genioctl and the
// simulator: an HTTP client speaking the genio/api wire contract to an
// api/server — a remote geniod, or one the caller hosts on loopback
// over its own platform (daemon-less genioctl, the simulator). Either
// way a call crosses the same server-side path, and errors decode back
// to the library's typed taxonomy, so errors.Is/errors.As-driven output
// matches what the platform returns.
package client

import "genio/api"

// BatchResult is one positional element of a DeployBatch: exactly one
// of Workload (placed) or Err (decoded typed taxonomy error —
// errors.Is/As work) is set.
type BatchResult struct {
	Workload *api.Workload
	Err      error
}
