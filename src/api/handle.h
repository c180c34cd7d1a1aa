/**
 * @file
 * Typed handles for the ecovisor API.
 *
 * Every per-app and per-container call is addressed by a handle, never
 * by a name: a name is resolved exactly once — at tryAddApp()/findApp()
 * time — into an AppHandle that indexes contiguous per-app state
 * directly (the AoS→SoA discipline: resolve once, index thereafter).
 *
 * Handle stability: an AppHandle is the app's registration index and
 * never changes — later tryAddApp() calls do not invalidate or renumber
 * earlier handles, regardless of name ordering (the supervisor keeps
 * its deterministic sorted *iteration* order separately). Apps cannot
 * currently be removed, so a handle obtained from the registering
 * ecovisor stays valid for that ecovisor's lifetime. Handles are not
 * portable across Ecovisor instances.
 *
 * ContainerHandle wraps the COP's {slot, generation} ContainerRef:
 * resolution is an O(1) bounds check plus generation compare against
 * the cluster's container slab — no id lookup at all — and a handle
 * held across its container's destruction goes *stale* (every v2
 * call through it returns UnknownContainer) instead of aliasing the
 * recycled slot or crashing. Obtain one with handleOf() / the
 * workloads' containerHandles(); like AppHandles, container handles
 * are not portable across Cluster instances.
 */

#ifndef ECOV_API_HANDLE_H
#define ECOV_API_HANDLE_H

#include <cstdint>
#include <vector>

#include "cop/cluster.h"

namespace ecov::api {

/**
 * A resolved application: its registration index in the ecovisor's
 * contiguous per-app state. Default-constructed handles are invalid.
 */
class AppHandle
{
  public:
    /** Invalid handle. */
    constexpr AppHandle() = default;

    /** Handle for a known registration index (tests, iteration). */
    explicit constexpr AppHandle(std::int32_t index) : index_(index) {}

    /** True when this handle was resolved (may still be stale). */
    constexpr bool valid() const { return index_ >= 0; }

    /** The registration index; -1 when invalid. */
    constexpr std::int32_t index() const { return index_; }

    friend constexpr bool
    operator==(AppHandle a, AppHandle b)
    {
        return a.index_ == b.index_;
    }
    friend constexpr bool
    operator!=(AppHandle a, AppHandle b)
    {
        return !(a == b);
    }

  private:
    std::int32_t index_ = -1;
};

/**
 * Typed wrapper around a COP {slot, generation} container reference.
 */
class ContainerHandle
{
  public:
    /** Invalid handle. */
    constexpr ContainerHandle() = default;

    /** Wrap a resolved COP container ref. */
    explicit constexpr ContainerHandle(cop::ContainerRef ref)
        : ref_(ref)
    {}

    /** True when this wraps a resolved ref (may still be stale). */
    constexpr bool valid() const { return ref_.valid(); }

    /** The underlying slab reference. */
    constexpr cop::ContainerRef ref() const { return ref_; }

    friend constexpr bool
    operator==(ContainerHandle a, ContainerHandle b)
    {
        return a.ref_ == b.ref_;
    }
    friend constexpr bool
    operator!=(ContainerHandle a, ContainerHandle b)
    {
        return !(a == b);
    }

  private:
    cop::ContainerRef ref_;
};

/**
 * Resolve a COP container id into a handle. Unknown or destroyed ids
 * yield an invalid handle (which every handle call reports as
 * UnknownContainer — resolution itself never fails loudly).
 */
inline ContainerHandle
handleOf(const cop::Cluster &cluster, cop::ContainerId id)
{
    return ContainerHandle(cluster.refOf(id));
}

/** Resolve a COP container-id list into typed handles. */
inline std::vector<ContainerHandle>
wrapContainers(const cop::Cluster &cluster,
               const std::vector<cop::ContainerId> &ids)
{
    std::vector<ContainerHandle> out;
    out.reserve(ids.size());
    for (cop::ContainerId id : ids)
        out.push_back(handleOf(cluster, id));
    return out;
}

} // namespace ecov::api

#endif // ECOV_API_HANDLE_H
