#include "perf/machine_model.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace exw::perf {

double MachineModel::kernel_time(double flops, double bytes) const {
  const double compute = flops / (flops_per_s * efficiency);
  const double traffic = bytes / (bytes_per_s * efficiency);
  return std::max(compute, traffic) + kernel_launch_s;
}

double MachineModel::stream_time(double bytes) const {
  return bytes / (bytes_per_s * efficiency);
}

double MachineModel::message_time(double bytes) const {
  return msg_latency_s + bytes / msg_bytes_per_s;
}

double MachineModel::allreduce_time(double bytes, int nranks) const {
  if (nranks <= 1) {
    return 0.0;
  }
  const double hops = std::ceil(std::log2(static_cast<double>(nranks)));
  return hops * (coll_hop_s + bytes / msg_bytes_per_s);
}

MachineModel MachineModel::summit_gpu() {
  MachineModel m;
  m.name = "SummitGPU";
  // V100 SXM2: 7.8 TF/s FP64 peak, 900 GB/s HBM2 (sustained ~0.8x).
  m.flops_per_s = 7.8e12;
  m.bytes_per_s = 720e9;
  m.efficiency = 0.12;
  m.kernel_launch_s = 9e-6;
  // Spectrum MPI with GPU-resident buffers: the paper attributes the poor
  // Summit strong-scaling slope largely to this path.
  m.msg_latency_s = 16e-6;
  m.msg_bytes_per_s = 10e9;
  m.coll_hop_s = 10e-6;
  m.ranks_per_node = 6;
  return m;
}

MachineModel MachineModel::summit_cpu() {
  MachineModel m;
  m.name = "SummitCPU";
  // One Power9 core out of 42: ~13 GF/s peak, ~135 GB/s node STREAM.
  m.flops_per_s = 13e9;
  m.bytes_per_s = 135e9 / 42.0;
  m.efficiency = 0.35;
  m.kernel_launch_s = 0.3e-6;  // a function call, not a device launch
  m.msg_latency_s = 1.5e-6;    // host-resident buffers
  m.msg_bytes_per_s = 12.5e9;
  m.coll_hop_s = 1.5e-6;
  m.ranks_per_node = 42;
  return m;
}

MachineModel MachineModel::eagle_gpu() {
  MachineModel m = summit_gpu();
  m.name = "EagleGPU";
  // V100 PCIe: slightly lower peak than SXM2 (paper notes the reduction),
  // but HPE MPT + x86 host drives messages much more cheaply.
  m.flops_per_s = 7.0e12;
  m.bytes_per_s = 720e9;
  m.efficiency = 0.12;
  m.kernel_launch_s = 7e-6;
  m.msg_latency_s = 6e-6;
  m.msg_bytes_per_s = 12e9;
  m.coll_hop_s = 5e-6;
  m.ranks_per_node = 2;
  return m;
}

MachineModel MachineModel::host_cpu() {
  MachineModel m;
  m.name = "HostCPU";
  m.flops_per_s = 5e9;
  m.bytes_per_s = 10e9;
  m.kernel_launch_s = 0.1e-6;
  m.msg_latency_s = 0.2e-6;
  m.msg_bytes_per_s = 20e9;
  m.coll_hop_s = 0.2e-6;
  m.ranks_per_node = 1;
  return m;
}

}  // namespace exw::perf
