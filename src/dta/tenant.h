// Tenant identity for the multi-tenant serving plane.
//
// DTA's original deployment model is one trusted operator; the serving
// plane generalizes that to many mutually-untrusted tenants sharing one
// collector fleet. A TenantId names the principal a report or query is
// accounted and rate-limited against. It is an *in-process* annotation:
// the DTA wire format is unchanged (reporters are switches, which are
// infrastructure, not tenants) — tenancy attaches where application
// traffic enters the library (dta::Client), whose TenantRegistry keeps
// one token bucket per registered tenant. The wire translator admits
// every report against its one shared bucket.
//
// Tenant 0 is the default tenant: unregistered traffic is accounted and
// limited against it, so a deployment that never configures tenants
// behaves exactly as before (one shared bucket, one shared counter row).
#pragma once

#include <cstdint>

namespace dta {

using TenantId = std::uint32_t;

inline constexpr TenantId kDefaultTenant = 0;

}  // namespace dta
