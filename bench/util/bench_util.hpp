// Shared helpers for the figure-reproduction benchmark binaries.
//
// Each bench prints the series the corresponding paper figure plots, next
// to reference values read off the published figure (approximate — they
// are digitized from the plots, not from a data release). Absolute numbers
// are not expected to match the 2011 Grid'5000 testbed; orderings and
// curve shapes are (see EXPERIMENTS.md).
#pragma once

#include <cstdlib>
#include <string>
#include <vector>

#include "cloud/cloud.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "vm/boot_trace.hpp"

namespace vmstorm::bench {

/// Instance counts swept by the cluster experiments (paper: 1..110).
/// VMSTORM_QUICK=1 shrinks the sweep for smoke runs.
std::vector<std::size_t> instance_sweep();

/// True when VMSTORM_QUICK=1 (CI / smoke mode).
bool quick_mode();

/// The §5.1 testbed: 2 GiB image, 256 KiB chunks, GigE, 55 MB/s disks.
cloud::CloudConfig paper_cloud_config(std::size_t nodes);

/// The §2.3/§5.2 boot workload: ~105 MiB of clustered small reads plus
/// ~15 MB of contextualization writes on a 2 GiB image.
vm::BootTraceParams paper_boot_params();

/// Prints the standard bench header.
void print_header(const std::string& figure, const std::string& what);

}  // namespace vmstorm::bench
