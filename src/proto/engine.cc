#include "proto/engine.h"

#include <algorithm>

#include "sim/stats/stats.h"
#include "util/check.h"
#include "util/log.h"

namespace lrs::proto {

using sim::SimTime;

DissemNode::DissemNode(sim::Env& env, std::unique_ptr<SchemeState> scheme,
                       EngineConfig config, Bytes cluster_key)
    : sim::Node(env),
      scheme_(std::move(scheme)),
      rx_memo_(config.rx_memo),
      trickle_(config.timing.trickle, &env.rng()),
      cfg_(std::move(config)),
      cluster_key_(std::move(cluster_key)) {
  LRS_CHECK(scheme_ != nullptr);
  refresh_scheme_view();
  if (!cluster_key_.empty()) cluster_mac_.emplace(view(cluster_key_));
}

void DissemNode::refresh_scheme_view() {
  version_ = scheme_->version();
  pages_complete_ = scheme_->pages_complete();
  bootstrapped_ = scheme_->bootstrapped();
  complete_ = scheme_->image_complete();
}

const crypto::HmacKey* DissemNode::snack_tx_mac() {
  if (cfg_.leap_snack_auth) {
    if (!leap_tx_mac_) {
      leap_tx_mac_.emplace(
          view(leap_source_key(view(cfg_.leap_master), env().id())));
    }
    return &*leap_tx_mac_;
  }
  return cluster_mac_ ? &*cluster_mac_ : nullptr;
}

const crypto::HmacKey& DissemNode::snack_rx_mac(NodeId sender) {
  auto it = leap_rx_macs_.find(sender);
  if (it == leap_rx_macs_.end()) {
    const Bytes key = leap_source_key(view(cfg_.leap_master), sender);
    it = leap_rx_macs_.emplace(sender, crypto::HmacKey(view(key))).first;
  }
  return it->second;
}

DissemNode::NeighborInfo& DissemNode::neighbor(NodeId id) {
  auto it = std::lower_bound(
      neighbors_.begin(), neighbors_.end(), id,
      [](const NeighborEntry& e, NodeId v) { return e.id < v; });
  if (it == neighbors_.end() || it->id != id) {
    it = neighbors_.insert(it, NeighborEntry{id, {}});
  }
  return it->info;
}

void DissemNode::forget_neighbor(NodeId id) {
  auto it = std::lower_bound(
      neighbors_.begin(), neighbors_.end(), id,
      [](const NeighborEntry& e, NodeId v) { return e.id < v; });
  if (it != neighbors_.end() && it->id == id) neighbors_.erase(it);
}

std::size_t& DissemNode::dor_counter(NodeId sender, std::uint32_t page) {
  const auto key = std::make_pair(sender, page);
  auto it = std::lower_bound(
      dor_counters_.begin(), dor_counters_.end(), key,
      [](const DorEntry& e, const std::pair<NodeId, std::uint32_t>& k) {
        return std::make_pair(e.sender, e.page) < k;
      });
  if (it == dor_counters_.end() || it->sender != sender || it->page != page) {
    it = dor_counters_.insert(it, DorEntry{sender, page, 0});
  }
  return it->used;
}

TxScheduler* DissemNode::tx_session(std::uint32_t page) {
  auto it = std::lower_bound(
      tx_sessions_.begin(), tx_sessions_.end(), page,
      [](const auto& e, std::uint32_t p) { return e.first < p; });
  if (it == tx_sessions_.end() || it->first != page) return nullptr;
  return it->second.get();
}

SimTime DissemNode::rand_delay(SimTime max) {
  if (max <= 0) return 0;
  return static_cast<SimTime>(
      env().rng().uniform(static_cast<std::uint64_t>(max)));
}

void DissemNode::set_state(NodeState next) {
  if (next == state_) return;
  const NodeState prev = state_;
  state_ = next;
  if (auto* o = env().observer()) {
    o->on_state_transition(env().now(), env().id(), static_cast<int>(prev),
                           static_cast<int>(next));
  }
}

void DissemNode::note_auth_failure(sim::PacketClass cls) {
  if (auto* o = env().observer()) {
    o->on_auth_failure(env().now(), env().id(), cls);
  }
}

void DissemNode::on_start() {
  if (cfg_.is_base_station) {
    if (complete_) env().notify_complete();
    if (scheme_->signature_frame().has_value()) {
      env().schedule(cfg_.timing.signature_boot_delay, [this] {
        maybe_broadcast_signature();
      });
    }
  }
  trickle_restart();
}

void DissemNode::on_reboot() {
  // A watchdog reset: the scheme drops its volatile page buffer (the
  // persisted frontier survives inside it), and every timer, session and
  // neighbor table is gone with the RAM.
  scheme_->on_reboot();
  refresh_scheme_view();
  reset_protocol_state();
  trickle_restart();
  consider_rx();
}

// --------------------------------------------------------------------------
// Advertisements / Trickle
// --------------------------------------------------------------------------

void DissemNode::trickle_restart() {
  trickle_.reset(env().now());
  arm_adv_fire();
}

void DissemNode::arm_adv_fire() {
  env().cancel(adv_token_);
  adv_token_ = env().schedule(trickle_.fire_time() - env().now(),
                              [this] { on_adv_fire(); });
}

void DissemNode::on_adv_fire() {
  if (trickle_.should_broadcast()) send_advertisement();
  env().cancel(adv_token_);
  const SimTime wait = std::max<SimTime>(0, trickle_.interval_end() - env().now());
  adv_token_ = env().schedule(wait, [this] { on_adv_interval_end(); });
}

void DissemNode::on_adv_interval_end() {
  trickle_.next_interval(env().now());
  arm_adv_fire();
}

void DissemNode::send_advertisement() {
  Advertisement adv;
  adv.version = version_;
  adv.sender = env().id();
  adv.pages_complete = pages_complete_;
  adv.bootstrapped = bootstrapped_;
  // The serialized frame (including its MAC) is a pure function of these
  // fields, and Trickle re-announces an unchanged state many times between
  // changes — rebuild only when the advertised state moved.
  if (adv_frame_.empty() || adv_cached_.version != adv.version ||
      adv_cached_.pages_complete != adv.pages_complete ||
      adv_cached_.bootstrapped != adv.bootstrapped) {
    adv_cached_ = adv;
    adv_frame_ = cluster_mac_ ? adv.serialize(*cluster_mac_)
                              : adv.serialize(ByteView{});
  }
  env().broadcast(sim::PacketClass::kAdvertisement, adv_frame_);
}

// --------------------------------------------------------------------------
// Frame dispatch
// --------------------------------------------------------------------------

void DissemNode::on_receive(ByteView frame) {
  // The protocol-bound hot path: everything below — parse, MAC/hash
  // verification, scheme buffering, erasure decode — bills to proto.rx
  // (inclusive of the nested crypto.*/erasure.* scopes). Frames received
  // = proto.rx.calls; authentication failures of every packet class are
  // counted per receiver in NodeMetrics::auth_failures.
  static stats::Timer& rx_timer =
      stats::Registry::instance().timer("proto.rx");
  stats::TimerScope rx_scope(rx_timer);
  const auto type = peek_type(frame);
  if (!type) return;
  // With a memo wired and a live delivery serial, the first receiver of a
  // broadcast frame parses/verifies it and the rest of the fan-out reuses
  // the outcome. All per-receiver decisions (version checks, metric
  // charges, auth-failure accounting) stay below this point.
  RxFanoutMemo* memo = rx_memo_;
  const std::uint64_t serial = memo ? env().delivery_serial() : 0;
  switch (*type) {
    case PacketType::kAdvertisement: {
      const Advertisement* adv = nullptr;
      std::optional<Advertisement> parsed;
      if (serial != 0 && memo->adv_serial == serial) {
        if (memo->adv_ok) adv = &memo->adv;
      } else {
        parsed = cluster_mac_ ? Advertisement::parse(frame, *cluster_mac_)
                              : Advertisement::parse(frame, ByteView{});
        if (serial != 0) {
          memo->adv_serial = serial;
          memo->adv_ok = parsed.has_value();
          if (parsed) memo->adv = *parsed;
        }
        if (parsed) adv = &*parsed;
      }
      if (!adv) {
        env().metrics().auth_failures += 1;
        note_auth_failure(sim::PacketClass::kAdvertisement);
        return;
      }
      if (adv->version != version_) {
        // A neighbor runs a NEWER image: fetch its signature packet to
        // verify and adopt it (never move backwards).
        if (cfg_.scheme_factory && adv->version > version_ &&
            adv->bootstrapped) {
          trickle_restart();
          request_signature_from(adv->sender, adv->version);
        }
        return;
      }
      handle_advertisement(*adv);
      return;
    }
    case PacketType::kSnack: {
      const Snack* snack = nullptr;
      std::optional<Snack> parsed;
      if (serial != 0 && memo->snack_serial == serial) {
        if (memo->snack_ok) snack = &memo->snack;
      } else {
        // Under LEAP-style auth the MAC key is the claimed sender's own
        // key, so a verified SNACK also authenticates WHO sent it. The
        // key schedule is sender-derived either way, which is what makes
        // the parse outcome shareable across receivers.
        if (cfg_.leap_snack_auth) {
          const auto sender = Snack::peek_sender(frame);
          if (!sender) return;
          parsed = Snack::parse(frame, snack_rx_mac(*sender));
        } else if (cluster_mac_) {
          parsed = Snack::parse(frame, *cluster_mac_);
        } else {
          parsed = Snack::parse(frame, ByteView{});
        }
        if (serial != 0) {
          memo->snack_serial = serial;
          memo->snack_ok = parsed.has_value();
          if (parsed) memo->snack = *parsed;
        }
        if (parsed) snack = &*parsed;
      }
      if (!snack || snack->version != version_) {
        if (!snack) {
          env().metrics().auth_failures += 1;
          note_auth_failure(sim::PacketClass::kSnack);
        }
        return;
      }
      handle_snack(*snack);
      return;
    }
    case PacketType::kData: {
      const DataPacket* data = nullptr;
      std::optional<DataPacket> parsed;
      if (serial != 0 && memo->data_serial == serial) {
        if (memo->data_ok) data = &memo->data;
      } else {
        parsed = DataPacket::parse(frame);
        if (serial != 0) {
          memo->data_serial = serial;
          memo->data_ok = parsed.has_value();
          if (parsed) memo->data = *parsed;
        }
        if (parsed) data = &*parsed;
      }
      if (!data || data->version != version_) return;
      handle_data(*data, serial);
      return;
    }
    case PacketType::kSignature:
      handle_signature_frame(frame);
      return;
  }
}

// --------------------------------------------------------------------------
// Advertisement handling
// --------------------------------------------------------------------------

void DissemNode::handle_advertisement(const Advertisement& adv) {
  auto& info = neighbor(adv.sender);
  info.pages_complete = adv.pages_complete;
  info.bootstrapped = adv.bootstrapped;

  const std::uint32_t mine = pages_complete_;
  const bool consistent = adv.pages_complete == mine &&
                          adv.bootstrapped == bootstrapped_;
  if (consistent) {
    trickle_.heard_consistent();
  } else {
    trickle_restart();
  }

  if (!bootstrapped_) {
    if (adv.bootstrapped) maybe_request_signature();
    return;
  }
  if (adv.pages_complete > mine && !complete_) consider_rx();
}

// --------------------------------------------------------------------------
// RX
// --------------------------------------------------------------------------

void DissemNode::consider_rx() {
  if (state_ != NodeState::kMaintain) return;
  if (complete_) return;
  if (!bootstrapped_) {
    maybe_request_signature();
    return;
  }
  if (auto server = pick_server()) enter_rx(*server);
}

std::optional<NodeId> DissemNode::pick_server() const {
  const std::uint32_t mine = pages_complete_;
  std::optional<NodeId> best;
  std::uint32_t best_pages = mine;
  for (const auto& e : neighbors_) {
    if (e.info.pages_complete > best_pages) {
      best = e.id;
      best_pages = e.info.pages_complete;
    }
  }
  return best;
}

void DissemNode::enter_rx(NodeId target) {
  set_state(NodeState::kRx);
  rx_target_ = target;
  rx_retries_ = 0;
  rx_deadline_ = env().now() + cfg_.timing.max_snack_deferral;
  arm_snack(rand_delay(cfg_.timing.snack_delay_max));
}

void DissemNode::leave_rx() {
  env().cancel(rx_token_);
  rx_token_ = {};
  set_state(NodeState::kMaintain);
}

void DissemNode::arm_snack(SimTime delay) {
  // Deferrals may never push the request past the deadline; this bounds the
  // damage of duplicate/old-page replay floods (see max_snack_deferral).
  const SimTime latest = std::max<SimTime>(1, rx_deadline_ - env().now());
  env().cancel(rx_token_);
  rx_token_ = env().schedule(std::min(delay, latest),
                             [this] { send_snack(); });
}

void DissemNode::send_snack() {
  if (state_ != NodeState::kRx) return;
  if (complete_) {
    leave_rx();
    return;
  }
  const std::uint32_t page = pages_complete_;
  Snack s;
  s.version = version_;
  s.sender = env().id();
  s.target = rx_target_;
  s.page = page;
  s.requested = scheme_->request_bits(page);
  const crypto::HmacKey* mac = snack_tx_mac();
  // Data-page SNACKs only: the signature requests request_signature_from
  // sends count in the kSnack class (snack_pkts) but not here.
  static stats::Counter& snacks =
      stats::Registry::instance().counter("proto.snack.sent");
  snacks.add();
  env().broadcast(sim::PacketClass::kSnack,
                  mac ? s.serialize(*mac) : s.serialize(ByteView{}));

  rx_deadline_ = env().now() + cfg_.timing.max_snack_deferral;
  env().cancel(rx_token_);
  rx_token_ = env().schedule(
      cfg_.timing.snack_retry + rand_delay(cfg_.timing.snack_retry_jitter),
      [this] { on_snack_retry(); });
}

void DissemNode::on_snack_retry() {
  if (state_ != NodeState::kRx) return;
  if (complete_) {
    leave_rx();
    return;
  }
  ++rx_retries_;
  if (rx_retries_ > cfg_.timing.max_snack_retries) {
    // Give up on this server; drop its stale entry and look for another.
    forget_neighbor(rx_target_);
    leave_rx();
    trickle_restart();
    consider_rx();
    return;
  }
  send_snack();
}

// --------------------------------------------------------------------------
// TX
// --------------------------------------------------------------------------

void DissemNode::handle_snack(const Snack& snack) {
  if (snack.page == kSignatureRequestPage) {
    if (snack.target == env().id()) maybe_broadcast_signature();
    return;
  }

  if (snack.target != env().id()) {
    // A neighbor requested an EARLIER page: hold our own request back so
    // the neighborhood advances in lockstep (Deluge suppression). A
    // request for the SAME page needs no suppression — the server merges
    // concurrent requests into one burst.
    if (state_ == NodeState::kRx && rx_token_ &&
        snack.page < pages_complete_) {
      arm_snack(cfg_.timing.lockstep_delay +
                rand_delay(cfg_.timing.snack_retry_jitter));
    }
    return;
  }

  // Addressed to us: can we serve the page?
  if (snack.page >= pages_complete_) return;
  if (snack.requested.size() != scheme_->packets_in_page(snack.page)) return;
  if (snack.requested.none()) return;

  // Denial-of-receipt mitigation (§IV-E): cap the number of packets one
  // neighbor can make us transmit for one page.
  const std::size_t q = snack.requested.count();
  const std::size_t kprime = scheme_->decode_threshold(snack.page);
  const std::size_t npkts = scheme_->packets_in_page(snack.page);
  const std::size_t needed =
      q + kprime > npkts ? q + kprime - npkts : std::size_t{1};
  if (cfg_.dor_mitigation) {
    auto& used = dor_counter(snack.sender, snack.page);
    const std::size_t limit = cfg_.dor_limit_factor * kprime;
    if (used >= limit) {
      env().metrics().snacks_ignored += 1;
      return;
    }
    used += std::min(needed, q);
  }

  LRS_LOG(kDebug) << "node " << env().id() << " snack from " << snack.sender
                  << " page " << snack.page << " q=" << q << " needed="
                  << needed << " t=" << env().now();
  begin_or_merge_tx(snack);
}

void DissemNode::begin_or_merge_tx(const Snack& snack) {
  const std::size_t q = snack.requested.count();
  const std::size_t kprime = scheme_->decode_threshold(snack.page);
  const std::size_t npkts = scheme_->packets_in_page(snack.page);
  const std::size_t needed =
      q + kprime > npkts ? q + kprime - npkts : std::size_t{1};

  TxScheduler* session = tx_session(snack.page);
  if (session == nullptr) {
    auto it = std::lower_bound(
        tx_sessions_.begin(), tx_sessions_.end(), snack.page,
        [](const auto& e, std::uint32_t p) { return e.first < p; });
    it = tx_sessions_.emplace(it, snack.page,
                              scheme_->make_scheduler(snack.page));
    session = it->second.get();
    const auto rot = std::lower_bound(
        serve_rotation_.begin(), serve_rotation_.end(), snack.page,
        [](const auto& e, std::uint32_t p) { return e.first < p; });
    if (rot != serve_rotation_.end() && rot->first == snack.page) {
      session->set_start(rot->second);
    }
  }
  session->on_snack(snack.sender, snack.requested, needed);

  if (state_ == NodeState::kTx) return;  // serve loop already running
  if (state_ == NodeState::kRx) {
    // Serving takes precedence; resume requesting afterwards.
    env().cancel(rx_token_);
    rx_token_ = {};
    rx_pending_resume_ = true;
  }
  set_state(NodeState::kTx);
  env().cancel(tx_token_);
  // Pool concurrent requests briefly so one burst serves them all.
  tx_token_ = env().schedule(cfg_.timing.serve_aggregation +
                                 rand_delay(cfg_.timing.data_gap),
                             [this] { serve_next(); });
}

void DissemNode::serve_next() {
  if (state_ != NodeState::kTx) return;
  // Flow control: never run ahead of the radio, or receivers re-request
  // packets that are still sitting in the MAC queue.
  if (env().pending_tx() >= 2) {
    env().cancel(tx_token_);
    tx_token_ = env().schedule(cfg_.timing.data_gap, [this] { serve_next(); });
    return;
  }
  // Drop drained sessions; always serve the lowest outstanding page
  // (Deluge priority: earlier pages unblock more neighbors).
  std::optional<std::uint32_t> idx;
  std::uint32_t page = 0;
  while (!tx_sessions_.empty()) {
    auto it = tx_sessions_.begin();  // lowest page: vector sorted by page
    idx = it->second->next_packet();
    if (idx) {
      page = it->first;
      break;
    }
    tx_sessions_.erase(it);
  }
  if (!idx) {
    leave_tx();
    return;
  }
  auto payload = scheme_->packet_payload(page, *idx);
  LRS_CHECK_MSG(payload.has_value(), "serving a page we do not have");
  DataPacket d;
  d.version = version_;
  d.page = page;
  d.index = *idx;
  d.payload = *std::move(payload);
  const std::uint32_t next_rot =
      (*idx + 1) % static_cast<std::uint32_t>(scheme_->packets_in_page(page));
  auto rot = std::lower_bound(
      serve_rotation_.begin(), serve_rotation_.end(), page,
      [](const auto& e, std::uint32_t p) { return e.first < p; });
  if (rot != serve_rotation_.end() && rot->first == page) {
    rot->second = next_rot;
  } else {
    serve_rotation_.emplace(rot, page, next_rot);
  }
  LRS_LOG(kDebug) << "node " << env().id() << " serves page " << page
                  << " idx " << d.index << " t=" << env().now();
  if (page == 0) env().metrics().page0_data_sent += 1;
  static stats::Counter& served =
      stats::Registry::instance().counter("proto.data.served");
  served.add();
  if (auto* o = env().observer()) {
    o->on_data_served(env().now(), env().id(), page, *idx);
  }
  env().broadcast(sim::PacketClass::kData, d.serialize());
  env().cancel(tx_token_);
  tx_token_ = env().schedule(cfg_.timing.data_gap, [this] { serve_next(); });
}

void DissemNode::leave_tx() {
  env().cancel(tx_token_);
  tx_token_ = {};
  tx_sessions_.clear();
  set_state(NodeState::kMaintain);
  if (rx_pending_resume_ && !complete_) {
    rx_pending_resume_ = false;
    consider_rx();
  } else {
    rx_pending_resume_ = false;
  }
}

// --------------------------------------------------------------------------
// Data
// --------------------------------------------------------------------------

void DissemNode::handle_data(const DataPacket& data, std::uint64_t serial) {
  // TX-side data suppression: another server is covering this page.
  if (state_ == NodeState::kTx) {
    if (TxScheduler* session = tx_session(data.page)) {
      session->on_overheard_data(data.index);
    }
  }

  // Share the packet-content digest across this delivery's fan-out: the
  // engine owns the serial bookkeeping, the scheme fills/reuses the digest.
  RxDigestMemo* dig = nullptr;
  if (serial != 0) {
    RxFanoutMemo& m = *rx_memo_;
    if (m.digest_serial != serial) {
      m.digest_serial = serial;
      m.digest.valid = false;
    }
    dig = &m.digest;
  }

  const DataStatus status =
      scheme_->on_data(data.page, data.index, view(data.payload),
                       env().metrics(), dig);
  if (status == DataStatus::kPageComplete ||
      status == DataStatus::kImageComplete) {
    refresh_scheme_view();
  }
  LRS_LOG(kTrace) << "node " << env().id() << " data page " << data.page
                  << " idx " << data.index << " status "
                  << static_cast<int>(status) << " t=" << env().now();
  if (auto* o = env().observer()) {
    o->on_data_packet(env().now(), env().id(), data.page, data.index,
                      static_cast<int>(status));
    if (status == DataStatus::kRejected) {
      o->on_auth_failure(env().now(), env().id(), sim::PacketClass::kData);
    }
    if (status == DataStatus::kPageComplete ||
        status == DataStatus::kImageComplete) {
      o->on_page_complete(env().now(), env().id(), data.page,
                          pages_complete_);
    }
  }

  if (state_ == NodeState::kRx) {
    if (data.page == pages_complete_ &&
        (status == DataStatus::kStored || status == DataStatus::kStale)) {
      // The stream is flowing: plan to re-request the remainder shortly
      // after it goes quiet (losses mean the burst rarely completes us).
      arm_snack(cfg_.timing.stream_gap +
                rand_delay(cfg_.timing.stream_gap_jitter));
    } else if (data.page < pages_complete_ &&
               scheme_->verify_stored_packet(data.page, data.index,
                                             view(data.payload),
                                             env().metrics(), dig)) {
      // AUTHENTIC data for an EARLIER page: a straggling neighbor is being
      // served. Requesting our next page now would fragment the server's
      // bursts; hold back so the neighborhood advances in lockstep. Forged
      // lower-page packets fail the (one-hash) check and cause no delay.
      arm_snack(cfg_.timing.lockstep_delay +
                rand_delay(cfg_.timing.snack_retry_jitter));
    }
  }

  switch (status) {
    case DataStatus::kPageComplete:
      on_progress();
      break;
    case DataStatus::kImageComplete:
      env().notify_complete();
      on_progress();
      break;
    default:
      break;
  }
}

void DissemNode::on_progress() {
  trickle_restart();
  if (complete_) {
    if (state_ == NodeState::kRx) leave_rx();
    return;
  }
  if (state_ == NodeState::kRx) {
    // Keep pulling the next page, ideally from the same server.
    rx_retries_ = 0;
    const auto it = std::lower_bound(
        neighbors_.begin(), neighbors_.end(), rx_target_,
        [](const NeighborEntry& e, NodeId v) { return e.id < v; });
    const bool target_still_ahead =
        it != neighbors_.end() && it->id == rx_target_ &&
        it->info.pages_complete > pages_complete_;
    if (target_still_ahead) {
      arm_snack(rand_delay(cfg_.timing.snack_delay_max));
    } else {
      leave_rx();
      consider_rx();
    }
  }
}

// --------------------------------------------------------------------------
// Signature bootstrap
// --------------------------------------------------------------------------

void DissemNode::maybe_request_signature() {
  if (bootstrapped_ || sig_request_armed_) return;
  // Need a bootstrapped neighbor to ask. Walk the candidates in
  // first-heard order, but skip ahead one candidate for every
  // kSigTargetRotate requests that have gone unanswered: the first-heard
  // neighbor can sit behind a link too weak to carry the request or the
  // reply, and asking only it would strand the node (liveness, not just
  // latency — the advertisement that registered it may be the only frame
  // that link ever delivers).
  std::uint32_t bootstrapped = 0;
  for (const auto& e : neighbors_) bootstrapped += e.info.bootstrapped;
  if (bootstrapped == 0) return;
  std::uint32_t skip =
      (sig_requests_unanswered_ / kSigTargetRotate) % bootstrapped;
  std::optional<NodeId> target;
  for (const auto& e : neighbors_) {
    if (!e.info.bootstrapped) continue;
    if (skip > 0) {
      --skip;
      continue;
    }
    target = e.id;
    break;
  }
  request_signature_from(*target, version_);
}

void DissemNode::request_signature_from(NodeId target, Version version) {
  if (sig_request_armed_) return;
  sig_request_armed_ = true;
  env().cancel(sig_token_);
  sig_token_ = env().schedule(
      rand_delay(cfg_.timing.snack_delay_max) + 1,
      [this, target, version] {
        sig_request_armed_ = false;
        // Still behind? (Either not bootstrapped, or the newer version has
        // not been adopted yet.)
        if (version_ >= version && bootstrapped_) return;
        ++sig_requests_unanswered_;
        Snack s;
        s.version = version;
        s.sender = env().id();
        s.target = target;
        s.page = kSignatureRequestPage;
        const crypto::HmacKey* mac = snack_tx_mac();
        env().broadcast(sim::PacketClass::kSnack,
                        mac ? s.serialize(*mac) : s.serialize(ByteView{}));
      });
}

void DissemNode::maybe_broadcast_signature() {
  auto frame = scheme_->signature_frame();
  if (!frame) return;
  if (last_sig_broadcast_ >= 0 &&
      env().now() - last_sig_broadcast_ <
          cfg_.timing.signature_rebroadcast_min_gap) {
    return;
  }
  last_sig_broadcast_ = env().now();
  env().broadcast(sim::PacketClass::kSignature, *std::move(frame));
}

void DissemNode::handle_signature_frame(ByteView frame) {
  SignatureMemo* memo = rx_memo_ ? &rx_memo_->signatures : nullptr;
  // Upgrade path: a signature packet for a newer version replaces the
  // whole image state — but only after it verifies on a candidate built
  // from the preloaded key material. Old/equal versions never displace
  // the current image (downgrade protection).
  if (cfg_.scheme_factory) {
    const auto packet = SignaturePacket::parse(frame);
    if (packet && packet->meta.version > version_) {
      auto candidate = cfg_.scheme_factory(packet->meta.version);
      if (candidate && candidate->on_signature(frame, env().metrics(), memo)) {
        adopt_scheme(std::move(candidate));
      }
      return;
    }
  }
  if (!scheme_->needs_signature() || bootstrapped_) return;
  if (scheme_->on_signature(frame, env().metrics(), memo)) {
    sig_requests_unanswered_ = 0;
    refresh_scheme_view();
    trickle_restart();
    consider_rx();
  }
}

void DissemNode::upgrade(std::unique_ptr<SchemeState> next) {
  LRS_CHECK_MSG(next != nullptr, "upgrade needs a scheme");
  LRS_CHECK_MSG(next->version() > version_,
                "image versions only move forward");
  adopt_scheme(std::move(next));
  if (cfg_.is_base_station && scheme_->signature_frame().has_value()) {
    last_sig_broadcast_ = -1;
    maybe_broadcast_signature();
  }
}

void DissemNode::adopt_scheme(std::unique_ptr<SchemeState> next) {
  scheme_ = std::move(next);
  refresh_scheme_view();
  reset_protocol_state();
  trickle_restart();
  consider_rx();
}

void DissemNode::reset_protocol_state() {
  env().cancel(rx_token_);
  rx_token_ = {};
  env().cancel(tx_token_);
  tx_token_ = {};
  env().cancel(sig_token_);
  sig_token_ = {};
  tx_sessions_.clear();
  set_state(NodeState::kMaintain);
  rx_pending_resume_ = false;
  rx_retries_ = 0;
  sig_request_armed_ = false;
  last_sig_broadcast_ = -1;
  sig_requests_unanswered_ = 0;
  neighbors_.clear();      // stale: they referred to the old version
  dor_counters_.clear();
  serve_rotation_.clear();
}

}  // namespace lrs::proto
