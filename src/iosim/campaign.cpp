#include "iosim/campaign.hpp"

#include <utility>

namespace st::iosim {

CampaignScale CampaignScale::small() {
  CampaignScale s;
  s.num_ranks = 8;
  s.ranks_per_node = 4;
  s.transfer_size = 1 << 18;  // 256 KiB
  s.block_size = 1 << 20;     // 4 transfers per block
  s.segments = 2;
  return s;
}

namespace {

IorOptions base_options(const CampaignScale& scale) {
  IorOptions opt;
  opt.num_ranks = scale.num_ranks;
  opt.ranks_per_node = scale.ranks_per_node;
  opt.transfer_size = scale.transfer_size;
  opt.block_size = scale.block_size;
  opt.segments = scale.segments;
  opt.seed = scale.seed;
  return opt;
}

}  // namespace

IorOptions make_ssf_options(const CampaignScale& scale) {
  IorOptions opt = base_options(scale);
  opt.file_per_process = false;
  opt.test_file = "/p/scratch/ssf/test";
  opt.cid = "ssf";
  opt.base_rid = 20000;
  return opt;
}

IorOptions make_fpp_options(const CampaignScale& scale) {
  IorOptions opt = base_options(scale);
  opt.file_per_process = true;
  opt.test_file = "/p/scratch/fpp/test";
  opt.cid = "fpp";
  opt.base_rid = 30000;
  // Same seed as the SSF run: common random numbers across the pair.
  return opt;
}

model::EventLog ssf_fpp_campaign(const CampaignScale& scale, const CostModel& model) {
  model::EventLog ssf = run_ior(make_ssf_options(scale), model).to_event_log();
  model::EventLog fpp = run_ior(make_fpp_options(scale), model).to_event_log();
  // The paper records "events related to variants of read, write and
  // openat system calls" for this experiment.
  return filter_call_families(model::EventLog::merge(std::move(ssf), std::move(fpp)),
                              {"openat", "read", "write"});
}

IorOptions make_posix_options(const CampaignScale& scale) {
  IorOptions opt = base_options(scale);
  opt.api = IorOptions::Api::Posix;
  opt.test_file = "/p/scratch/ssf/test";
  opt.cid = "po";
  opt.base_rid = 40000;
  return opt;
}

IorOptions make_mpiio_options(const CampaignScale& scale) {
  IorOptions opt = base_options(scale);
  opt.api = IorOptions::Api::Mpiio;
  opt.test_file = "/p/scratch/ssf/test";
  opt.cid = "mpiio";
  opt.base_rid = 50000;
  // Same seed as the POSIX run: common random numbers across the pair.
  return opt;
}

model::EventLog mpiio_campaign(const CampaignScale& scale, const CostModel& model) {
  model::EventLog posix = run_ior(make_posix_options(scale), model).to_event_log();
  model::EventLog mpiio = run_ior(make_mpiio_options(scale), model).to_event_log();
  // "In addition to variants of read, write, and openat, we also
  // record the events related to lseek" (Sec. V-B).
  return filter_call_families(model::EventLog::merge(std::move(posix), std::move(mpiio)),
                              {"openat", "read", "write", "lseek"});
}

}  // namespace st::iosim
