#include "sim/churn.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "geo/geodesy.h"

namespace geoloc::sim {

ChurnModel::ChurnModel(World& world, std::span<const HostId> targets,
                       std::span<const HostId> vps, const ChurnConfig& config)
    : world_(&world), config_(config) {
  // The /24 universe: the targets' prefixes, sorted and deduplicated. A
  // reassignment moves every host inside the prefix (anchor plus hitlist
  // representatives) — the whole block got a new tenant.
  std::unordered_set<HostId> target_set(targets.begin(), targets.end());
  for (const HostId t : targets) {
    prefixes_.push_back(net::slash24_of(world.host(t).addr));
  }
  std::sort(prefixes_.begin(), prefixes_.end());
  prefixes_.erase(std::unique(prefixes_.begin(), prefixes_.end()),
                  prefixes_.end());

  std::unordered_map<std::uint32_t, std::size_t> by_network;
  by_network.reserve(prefixes_.size());
  for (std::size_t i = 0; i < prefixes_.size(); ++i) {
    by_network.emplace(prefixes_[i].network().value(), i);
  }
  prefix_hosts_.resize(prefixes_.size());
  for (const Host& h : world.hosts()) {
    const auto it = by_network.find(net::slash24_of(h.addr).network().value());
    if (it == by_network.end()) continue;
    prefix_hosts_[it->second].push_back(h.id);
    if (!target_set.contains(h.id) && h.kind == HostKind::Representative) {
      movable_hosts_.push_back(h.id);
    }
  }
  prefix_migrating_.assign(prefixes_.size(), 0);
  active_vps_.assign(vps.begin(), vps.end());
  initial_vp_count_ = active_vps_.size();
}

PlaceId ChurnModel::pick_destination(PlaceId from, util::Pcg32& gen) const {
  const Continent here = world_->place(from).continent;
  const Continent continent =
      gen.chance(config_.intercontinental_rate)
          ? all_continents()[gen.index(all_continents().size())]
          : here;
  return world_->sample_place(continent, /*satellite_bias=*/0.25, gen);
}

void ChurnModel::reassign_prefix(std::size_t prefix_idx, PlaceId place,
                                 util::Pcg32& gen) {
  for (const HostId id : prefix_hosts_[prefix_idx]) {
    world_->relocate_host(id, place,
                          world_->sample_location(place, /*mean_offset_km=*/6.0,
                                                  gen));
  }
}

EpochChurnSummary ChurnModel::advance(std::uint64_t epoch) {
  const util::RngStream stream =
      util::RngStream(config_.seed).fork("churn-epoch", epoch);
  EpochChurnSummary s;
  s.epoch = epoch;
  std::vector<char> moved(prefixes_.size(), 0);

  // -- stage 1: active /16 migration waves advance -------------------------
  auto wave_gen = stream.fork("wave").gen();
  for (Migration& m : migrations_) {
    if (m.remaining.empty()) continue;
    const double want =
        static_cast<double>(m.remaining.size()) * config_.wave_fraction;
    std::size_t count = static_cast<std::size_t>(want);
    if (wave_gen.chance(want - static_cast<double>(count))) ++count;
    count = std::max<std::size_t>(count, 1);
    count = std::min(count, m.remaining.size());
    for (std::size_t k = 0; k < count; ++k) {
      const std::size_t pick = wave_gen.index(m.remaining.size());
      const std::size_t prefix_idx = m.remaining[pick];
      m.remaining[pick] = m.remaining.back();
      m.remaining.pop_back();
      reassign_prefix(prefix_idx, m.destination, wave_gen);
      prefix_migrating_[prefix_idx] = 0;
      moved[prefix_idx] = 1;
      ++s.prefixes_reassigned;
    }
  }
  std::erase_if(migrations_,
                [](const Migration& m) { return m.remaining.empty(); });

  // -- stage 2: fresh reassignments seed new waves -------------------------
  auto reassign_gen = stream.fork("reassign").gen();
  for (std::size_t i = 0; i < prefixes_.size(); ++i) {
    if (moved[i] || prefix_migrating_[i]) continue;
    if (!reassign_gen.chance(config_.prefix_reassignment_rate)) continue;
    const PlaceId from =
        prefix_hosts_[i].empty() ? PlaceId{0}
                                 : world_->host(prefix_hosts_[i][0]).place;
    const PlaceId dest = pick_destination(from, reassign_gen);
    reassign_prefix(i, dest, reassign_gen);
    moved[i] = 1;
    ++s.prefixes_reassigned;
    if (config_.wave_fraction <= 0.0) continue;
    // The rest of the covering /16 starts following (operator renumbering).
    Migration m;
    m.block16 = prefixes_[i].network().value() & net::Prefix::mask(16);
    m.destination = dest;
    for (std::size_t j = 0; j < prefixes_.size(); ++j) {
      if (j == i || moved[j] || prefix_migrating_[j]) continue;
      if ((prefixes_[j].network().value() & net::Prefix::mask(16)) !=
          m.block16) {
        continue;
      }
      m.remaining.push_back(j);
      prefix_migrating_[j] = 1;
    }
    if (!m.remaining.empty()) {
      migrations_.push_back(std::move(m));
      ++s.waves_started;
    }
  }
  s.waves_active = migrations_.size();

  // -- stage 3: individual (sub-/24) host relocation -----------------------
  auto host_gen = stream.fork("relocate").gen();
  for (const HostId id : movable_hosts_) {
    if (!host_gen.chance(config_.host_relocation_rate)) continue;
    const Continent continent =
        world_->place(world_->host(id).place).continent;
    const PlaceId place =
        world_->sample_place(continent, /*satellite_bias=*/0.3, host_gen);
    world_->relocate_host(
        id, place, world_->sample_location(place, /*mean_offset_km=*/8.0,
                                           host_gen));
    ++s.hosts_relocated;
  }

  // -- stage 4: VP decommission --------------------------------------------
  auto decom_gen = stream.fork("decommission").gen();
  std::vector<HostId> survivors;
  survivors.reserve(active_vps_.size());
  for (const HostId vp : active_vps_) {
    if (decom_gen.chance(config_.vp_decommission_rate)) {
      world_->set_responsive(vp, false);
      ++s.vps_decommissioned;
      continue;
    }
    survivors.push_back(vp);
  }
  active_vps_ = std::move(survivors);

  // -- stage 5: new probes come online -------------------------------------
  auto add_gen = stream.fork("add").gen();
  const double add_want =
      static_cast<double>(initial_vp_count_) * config_.vp_addition_rate;
  std::size_t add_count = static_cast<std::size_t>(add_want);
  if (add_gen.chance(add_want - static_cast<double>(add_count))) ++add_count;
  for (std::size_t k = 0; k < add_count; ++k) {
    const Continent continent =
        all_continents()[add_gen.index(all_continents().size())];
    const PlaceId place =
        world_->sample_place(continent, /*satellite_bias=*/0.3, add_gen);
    const net::Asn asn = world_->create_as(
        AsCategory::Access,
        static_cast<int>(add_gen.index(as_sector_names().size())));
    const net::Prefix site = world_->allocate_site_prefix(asn);
    Host h;
    h.kind = HostKind::Probe;
    h.asn = asn;
    h.place = place;
    h.true_location = world_->sample_urban_location(place, /*hotspot_prob=*/0.4,
                                                    /*tight_km=*/2.0,
                                                    /*loose_km=*/12.0, add_gen);
    h.last_mile_ms = 1.0 + add_gen.exponential(2.0);
    h.addr = site.address_at(1 + add_gen.bounded(250));
    active_vps_.push_back(world_->add_host(h));
    ++s.vps_added;
  }

  // -- stage 6: reported-location drift ------------------------------------
  auto drift_gen = stream.fork("drift").gen();
  for (auto& [vp, bearing] : drifters_) {
    const Host& h = world_->host(vp);
    world_->misgeolocate(
        vp, geo::destination(h.reported_location, bearing,
                             config_.drift_step_km));
  }
  for (const HostId vp : active_vps_) {
    if (drifting_.contains(vp)) continue;
    if (!drift_gen.chance(config_.drift_onset_rate)) continue;
    const double bearing = drift_gen.uniform(0.0, 360.0);
    drifters_.emplace_back(vp, bearing);
    drifting_.insert(vp);
    const Host& h = world_->host(vp);
    world_->misgeolocate(
        vp, geo::destination(h.reported_location, bearing,
                             config_.drift_step_km));
  }
  s.vps_drifting = drifters_.size();

  for (std::size_t i = 0; i < prefixes_.size(); ++i) {
    if (moved[i]) s.moved_prefixes.push_back(prefixes_[i]);
  }
  epochs_applied_ = epoch;
  return s;
}

}  // namespace geoloc::sim
