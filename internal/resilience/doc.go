// Package resilience implements the failure-handling primitives of the
// serving path: a three-state circuit breaker around model prediction, a
// bounded admission gate for load shedding, the queue-derived Retry-After
// hint, the gateway's fleet-wide retry budget, and the clock interface
// that keeps them deterministic under test. The graceful-degradation
// classifier lives in the rulefallback subpackage and the deterministic
// fault injector in faultinject; internal/serve and internal/gateway wire
// them together (see ARCHITECTURE.md "Resilience" and "Overload control").
//
// Everything here is standard library only, like the rest of the tree,
// and every decision that depends on time goes through the Clock
// interface so tests (and shvet's nondet-flow analyzer) never meet a bare
// time.Now in control flow.
package resilience
