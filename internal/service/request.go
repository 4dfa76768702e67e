package service

import "repro/internal/scenario"

// EstimateRequest is one estimation query on the wire. The request
// vocabulary (fleet entries, hazard specs, the +Inf↔−1 WireFloat
// convention) lives in internal/scenario, where the declarative scenario
// documents that sweep over it are defined; see scenario.EstimateRequest.
type EstimateRequest = scenario.EstimateRequest
