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
// Tenant 0 is the default tenant, the one traffic carries when it names
// none. Like every tenant the registry gives no bucket (one never
// registered, or registered at rate 0), it is counted in its own row
// and never shed, so a deployment that never configures tenants is
// never shed at the serving plane.
#pragma once

#include <cstdint>

namespace dta {

using TenantId = std::uint32_t;

inline constexpr TenantId kDefaultTenant = 0;

}  // namespace dta
