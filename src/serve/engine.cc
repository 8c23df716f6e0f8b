#include "serve/engine.h"

#include <algorithm>

#include "common/logging.h"

namespace eyecod {
namespace serve {

namespace {

/** Derive the timing model at construction (trusted config path). */
ServiceModel
deriveModelOrDie(const ServingConfig &cfg)
{
    Result<ServiceModel> model =
        deriveServiceModel(cfg.system.workload, cfg.system.hw);
    if (!model.ok())
        panic("serving engine: %s",
              model.status().toString().c_str());
    return model.value();
}

/** Pressure reported while demand exists but no chip survives. */
constexpr double kDeadFleetPressure = 1e9;

} // namespace

ServingEngine::ServingEngine(
    ServingConfig cfg, const eyetrack::RidgeGazeEstimator &trained,
    const dataset::SyntheticEyeRenderer &renderer)
    : cfg_(std::move(cfg)), renderer_(renderer), trained_(trained),
      pool_(cfg_.virtual_chips, deriveModelOrDie(cfg_),
            cfg_.batch_amortized_fraction),
      health_(cfg_.degradation),
      sched_pool_(cfg_.scheduler_threads)
{
    eyecod_assert(cfg_.max_batch >= 1, "max_batch must be >= 1");
    eyecod_assert(cfg_.tick_us >= 1, "tick_us must be >= 1");
    eyecod_assert(cfg_.frame_interval_us >= 1,
                  "frame_interval_us must be >= 1");
    eyecod_assert(cfg_.deadline_us >= 1, "deadline_us must be >= 1");
    eyecod_assert(cfg_.max_sessions >= 1,
                  "max_sessions must be >= 1");
    eyecod_assert(cfg_.failover.max_retries >= 0,
                  "max_retries must be >= 0");
    eyecod_assert(cfg_.failover.backoff_base_us >= 1,
                  "backoff_base_us must be >= 1");
    eyecod_assert(cfg_.failover.backoff_cap_us >=
                      cfg_.failover.backoff_base_us,
                  "backoff cap below backoff base");
    eyecod_assert(cfg_.rate_downgrade_stride >= 2,
                  "rate_downgrade_stride must be >= 2");
    eyecod_assert(cfg_.resolution_cost_factor > 0.0 &&
                      cfg_.resolution_cost_factor <= 1.0,
                  "resolution_cost_factor outside (0, 1]");
    // Lane retirements re-derive their degraded timing models on the
    // real hardware config, same path as accel::retireLanes.
    pool_.configureHardware(cfg_.system.workload, cfg_.system.hw);
    pool_.setFaultSchedule(cfg_.failover.chip_faults);
    inflight_.resize(size_t(cfg_.virtual_chips));
    next_tick_us_ = cfg_.tick_us;
}

double
ServingEngine::projectedUtilization(int additional_sessions) const
{
    const double demand =
        double(activeSessions() + additional_sessions) *
        pool_.model().amortized_frame_us;
    // Capacity reflects the fleet as it stands: failed chips are
    // gone, lane-retired chips count fractionally.
    const double capacity = double(cfg_.frame_interval_us) *
                            pool_.effectiveCapacity();
    if (capacity > 0.0)
        return demand / capacity;
    return demand > 0.0 ? kDeadFleetPressure : 0.0;
}

Result<int>
ServingEngine::openSession()
{
    if (stopped_)
        return Status::error(ErrorCode::InvalidArgument,
                             "engine is stopped");
    if (health_.admissionClosed()) {
        ++rejected_sessions_;
        return Status::error(
            ErrorCode::Overloaded,
            "degradation ladder at tier %d (admission closed)",
            health_.tier());
    }
    if (activeSessions() >= cfg_.max_sessions) {
        ++rejected_sessions_;
        return Status::error(
            ErrorCode::Overloaded,
            "session cap reached (%d active, cap %d)",
            activeSessions(), cfg_.max_sessions);
    }
    const double projected = projectedUtilization(1);
    if (projected > cfg_.admission_max_utilization) {
        ++rejected_sessions_;
        return Status::error(
            ErrorCode::Overloaded,
            "projected utilization %.2f exceeds admission bound "
            "%.2f (%d active sessions, %d alive chips)",
            projected, cfg_.admission_max_utilization,
            activeSessions(), pool_.aliveChips());
    }
    const int id = int(sessions_.size());
    // detlint:allow(R8) control plane, bounded by max_sessions above
    sessions_.push_back(makeSession(id));
    return id;
}

std::unique_ptr<Session>
ServingEngine::makeSession(int id) const
{
    return std::make_unique<Session>(id, cfg_.system, trained_,
                                     cfg_.queue_capacity,
                                     cfg_.record_gaze, cfg_.drop_log_cap);
}

Status
ServingEngine::closeSession(int id)
{
    if (id < 0 || id >= sessionCount())
        return Status::error(ErrorCode::InvalidArgument,
                             "unknown session %d", id);
    Session &sess = *sessions_[size_t(id)];
    if (!sess.active())
        return Status::error(ErrorCode::InvalidArgument,
                             "session %d already closed", id);
    // Shed whatever is still queued — a closed session must not pin
    // scheduler capacity.
    FrameTicket ticket;
    while (sess.queue().pop(&ticket))
        sess.recordDrop(DropRecord{ticket.frame_index,
                                   ticket.arrival_us, virtual_now_,
                                   DropReason::ShedOnClose});
    // Pending failover retries of this session are equally moot.
    size_t out = 0;
    for (size_t i = 0; i < retry_.size(); ++i) {
        if (retry_[i].frame.session == id) {
            sess.recordDrop(DropRecord{
                retry_[i].frame.ticket.frame_index,
                retry_[i].frame.ticket.arrival_us, virtual_now_,
                DropReason::ShedOnClose});
            continue;
        }
        if (out != i)
            retry_[out] = retry_[i];
        ++out;
    }
    retry_.resize(out);
    // Frames already in flight on a chip still finalize into the
    // closed session's metrics (the work was done).
    sess.deactivate();
    ++closed_sessions_;
    return Status::ok();
}

Status
ServingEngine::submitFrame(int id, const FrameTicket &ticket)
{
    if (stopped_)
        return Status::error(ErrorCode::InvalidArgument,
                             "engine is stopped");
    if (id < 0 || id >= sessionCount())
        return Status::error(ErrorCode::InvalidArgument,
                             "unknown session %d", id);
    Session &sess = *sessions_[size_t(id)];
    if (!sess.active())
        return Status::error(ErrorCode::InvalidArgument,
                             "session %d is closed", id);
    SessionMetrics &m = sess.metrics();
    ++m.submitted;
    // Tier 3: refresh-rate downgrade. Every stride-th frame is shed
    // at admission — cheaper than queueing work the fleet cannot
    // serve, and spread evenly across every session (fairness). The
    // submit still succeeds: the producer is being paced, not
    // failed.
    if (health_.rateDowngraded() &&
        ticket.frame_index % cfg_.rate_downgrade_stride ==
            cfg_.rate_downgrade_stride - 1) {
        sess.recordDrop(DropRecord{ticket.frame_index,
                                   ticket.arrival_us, virtual_now_,
                                   DropReason::RateDowngrade});
        return Status::ok();
    }
    const std::optional<DropRecord> shed =
        sess.queue().push(ticket, virtual_now_);
    if (shed)
        sess.recordDrop(*shed);
    m.max_queue_depth = std::max(
        m.max_queue_depth, (long long)(sess.queue().size()));
    return Status::ok();
}

void
ServingEngine::advanceTo(long long target_us)
{
    while (next_tick_us_ <= target_us) {
        virtual_now_ = next_tick_us_;
        next_tick_us_ += cfg_.tick_us;
        runTick();
    }
    virtual_now_ = std::max(virtual_now_, target_us);
}

bool
ServingEngine::anyQueued() const
{
    for (const auto &sess : sessions_)
        if (sess->active() && !sess->queue().empty())
            return true;
    return false;
}

bool
ServingEngine::anyInFlight() const
{
    for (const InFlightBatch &b : inflight_)
        if (b.active)
            return true;
    return false;
}

void
ServingEngine::drain()
{
    while (anyQueued() || !retry_.empty() || anyInFlight() ||
           !pool_.allIdle(virtual_now_)) {
        if (!pool_.anyAlive() && !pool_.hasPendingEvents() &&
            !anyInFlight()) {
            // The whole fleet is down and no rejoin is scheduled:
            // pending work can never be served. Shed it so the drain
            // terminates instead of ticking forever.
            shedPending(DropReason::Failover);
            break;
        }
        virtual_now_ = next_tick_us_;
        next_tick_us_ += cfg_.tick_us;
        runTick();
    }
}

void
ServingEngine::shedPending(DropReason reason)
{
    for (auto &sess : sessions_) {
        if (!sess->active())
            continue;
        FrameTicket ticket;
        while (sess->queue().pop(&ticket))
            sess->recordDrop(DropRecord{ticket.frame_index,
                                        ticket.arrival_us,
                                        virtual_now_, reason});
    }
    for (const RetryFrame &r : retry_)
        sessions_[size_t(r.frame.session)]->recordDrop(DropRecord{
            r.frame.ticket.frame_index, r.frame.ticket.arrival_us,
            virtual_now_, reason});
    retry_.clear();
}

void
ServingEngine::stop(bool drain_first)
{
    if (stopped_)
        return;
    if (drain_first) {
        drain();
    } else {
        // Work already on a chip was functionally served — finalize
        // it at its recorded completion time; everything still
        // waiting is shed.
        finalizeDue(virtual_now_, /*force=*/true);
        shedPending(DropReason::ShedOnClose);
    }
    sched_pool_.shutdown(drain_first);
    stopped_ = true;
}

FleetMetrics
ServingEngine::runTrace(const std::vector<SessionTraffic> &traffic)
{
    // Flatten the trace into a deterministic event order: joins
    // before frames before leaves at equal timestamps, then by trace
    // index.
    struct Event
    {
        long long t = 0;
        int kind = 0; ///< 0 = join, 1 = frame, 2 = leave.
        int trace = 0;
        long frame = 0;
    };
    std::vector<Event> events;
    for (size_t i = 0; i < traffic.size(); ++i) {
        events.push_back(Event{traffic[i].join_us, 0, int(i), 0});
        for (size_t f = 0; f < traffic[i].frames.size(); ++f)
            events.push_back(
                Event{traffic[i].frames[f].arrival_us, 1, int(i),
                      long(f)});
        if (traffic[i].leave_us >= 0)
            events.push_back(
                Event{traffic[i].leave_us, 2, int(i), 0});
    }
    std::sort(events.begin(), events.end(),
              [](const Event &a, const Event &b) {
                  if (a.t != b.t)
                      return a.t < b.t;
                  if (a.kind != b.kind)
                      return a.kind < b.kind;
                  if (a.trace != b.trace)
                      return a.trace < b.trace;
                  return a.frame < b.frame;
              });

    std::vector<int> ids(traffic.size(), -1);
    for (const Event &ev : events) {
        advanceTo(ev.t);
        if (ev.kind == 0) {
            const Result<int> r = openSession();
            if (r.ok())
                ids[size_t(ev.trace)] = r.value();
            // Rejections are already counted by openSession; the
            // rejected user's frames are simply never submitted.
        } else if (ev.kind == 1 && ids[size_t(ev.trace)] >= 0) {
            // The session was admitted above and leaves only at its
            // scripted leave event, so a submit failure here is
            // engine state corruption, not load shedding.
            const Status st = submitFrame(
                ids[size_t(ev.trace)],
                traffic[size_t(ev.trace)].frames[size_t(ev.frame)]);
            eyecod_assert(st.isOk(), "runTraffic submit: %s",
                          st.toString().c_str());
        } else if (ev.kind == 2 && ids[size_t(ev.trace)] >= 0) {
            const Status st = closeSession(ids[size_t(ev.trace)]);
            eyecod_assert(st.isOk(), "runTraffic close: %s",
                          st.toString().c_str());
            ids[size_t(ev.trace)] = -1;
        }
    }
    drain();
    return fleetMetrics();
}

int
ServingEngine::activeSessions() const
{
    int n = 0;
    for (const auto &sess : sessions_)
        if (sess->active())
            ++n;
    return n;
}

Session &
ServingEngine::sessionRef(int id)
{
    eyecod_assert(id >= 0 && id < sessionCount(),
                  "session id %d out of range", id);
    return *sessions_[size_t(id)];
}

const Session &
ServingEngine::sessionRef(int id) const
{
    eyecod_assert(id >= 0 && id < sessionCount(),
                  "session id %d out of range", id);
    return *sessions_[size_t(id)];
}

const SessionMetrics &
ServingEngine::sessionMetrics(int id) const
{
    return sessionRef(id).metrics();
}

SessionHealth
ServingEngine::sessionHealth(int id) const
{
    return sessionRef(id).health();
}

const std::vector<dataset::GazeVec> &
ServingEngine::sessionGazeLog(int id) const
{
    return sessionRef(id).gazeLog();
}

FleetSignal
ServingEngine::fleetSignal() const
{
    FleetSignal sig;
    // RAW demand pressure — nominal per-session load over surviving
    // capacity, NOT the post-degradation cost. The ladder must react
    // to capacity/population changes only; reacting to the load it
    // itself reduced would oscillate (see serve/health.h).
    const double demand = double(activeSessions()) *
                          pool_.model().amortized_frame_us;
    const double capacity = double(cfg_.frame_interval_us) *
                            pool_.effectiveCapacity();
    if (capacity > 0.0)
        sig.utilization = demand / capacity;
    else if (demand > 0.0)
        sig.utilization = kDeadFleetPressure;
    long long queued = (long long)retry_.size();
    long long cap = 0;
    for (const auto &sess : sessions_) {
        if (!sess->active())
            continue;
        queued += (long long)sess->queue().size();
        cap += (long long)sess->queue().capacity();
    }
    if (cap > 0)
        sig.queue_occupancy = double(queued) / double(cap);
    return sig;
}

void
ServingEngine::abortInFlight(int chip, long long now_us)
{
    InFlightBatch &b = inflight_[size_t(chip)];
    if (!b.active)
        return;
    for (const InFlightFrame &fr : b.frames) {
        Session &sess = *sessions_[size_t(fr.session)];
        if (!sess.active()) {
            // The session left while its frame rode the dead chip;
            // nobody is waiting for a re-dispatch.
            sess.recordDrop(DropRecord{fr.ticket.frame_index,
                                       fr.ticket.arrival_us, now_us,
                                       DropReason::ShedOnClose});
            continue;
        }
        if (fr.attempts > cfg_.failover.max_retries) {
            sess.recordDrop(DropRecord{fr.ticket.frame_index,
                                       fr.ticket.arrival_us, now_us,
                                       DropReason::Failover});
            continue;
        }
        // Capped exponential backoff in virtual time: attempt k
        // waits base * 2^(k-1), clamped to the cap.
        long long backoff = cfg_.failover.backoff_base_us;
        for (int a = 1;
             a < fr.attempts && backoff < cfg_.failover.backoff_cap_us;
             ++a)
            backoff *= 2;
        backoff = std::min(backoff, cfg_.failover.backoff_cap_us);
        retry_.push_back( // detlint:allow(R8) bounded by frames in
                          // flight at failure instants
            RetryFrame{fr, now_us + backoff});
    }
    b.active = false;
    b.frames.clear();
}

void
ServingEngine::finalizeBatch(int chip)
{
    InFlightBatch &b = inflight_[size_t(chip)];
    const long long completion = b.completion_us;
    last_completion_us_ = std::max(last_completion_us_, completion);
    for (const InFlightFrame &fr : b.frames) {
        SessionMetrics &m = sessions_[size_t(fr.session)]->metrics();
        ++m.completed;
        if (fr.pipeline_drop)
            ++m.pipeline_drops;
        const double latency =
            double(completion - fr.ticket.arrival_us);
        m.latency_us.add(latency);
        m.latency_hist.add(latency);
        const bool miss =
            completion > fr.ticket.arrival_us + cfg_.deadline_us;
        if (miss)
            ++m.deadline_misses;
        if (fr.attempts > 1) {
            ++m.redispatched_frames;
            failover_latency_hist_.add(latency);
        }
        if (cfg_.record_completions) {
            if (completion_log_.size() < cfg_.completion_log_cap)
                completion_log_.push_back( // detlint:allow(R8)
                                           // bounded by the cap
                    CompletionRecord{fr.session,
                                     fr.ticket.frame_index,
                                     fr.ticket.arrival_us,
                                     completion, latency,
                                     fr.attempts > 1, miss});
            else
                ++completion_log_dropped_;
        }
    }
    b.active = false;
    b.frames.clear();
}

void
ServingEngine::finalizeDue(long long now_us, bool force)
{
    // Finalize in deterministic (completion, chip) order so metric
    // streams replay bitwise regardless of dispatch history.
    for (;;) {
        int best = -1;
        for (int c = 0; c < int(inflight_.size()); ++c) {
            const InFlightBatch &b = inflight_[size_t(c)];
            if (!b.active)
                continue;
            if (!force && b.completion_us > now_us)
                continue;
            if (best < 0 ||
                b.completion_us <
                    inflight_[size_t(best)].completion_us)
                best = c;
        }
        if (best < 0)
            break;
        finalizeBatch(best);
    }
}

void
ServingEngine::runTick()
{
    const long long now = virtual_now_;

    // --- Phase 0 (serial): lifecycle. Batches whose completion has
    // passed finalize FIRST — a batch done by `now` beat any failure
    // at `now` — then scheduled chip events apply, surviving work on
    // failed chips goes to the retry queue, and the health
    // controller digests the new fleet shape.
    finalizeDue(now);
    const VirtualAccelPool::EventOutcome events =
        pool_.applyEventsUpTo(now);
    chip_failures_ += (long long)events.failed.size();
    chip_rejoins_ += (long long)events.rejoined.size();
    lanes_retired_ += events.lanes_retired;
    for (int chip : events.failed)
        abortInFlight(chip, now);
    health_.update(fleetSignal());
    const bool degraded_res_tick = health_.resolutionDowngraded();

    // --- Phase 1 (serial): form cross-session batches, one per idle
    // alive chip. Failover retries whose backoff elapsed go first
    // (they are the oldest work in the system), then ready queue
    // fronts in earliest-deadline order (uniform relative deadlines
    // => earliest arrival, ties by session id). Frames left behind
    // wait in their bounded queues — that is the backpressure path.
    // All scratch is member state reused tick over tick
    // (capacity-retaining clears), so a warm scheduler tick performs
    // no heap allocation.
    std::vector<PendingFrame> &dispatched = dispatched_;
    dispatched.clear();
    num_batches_ = 0;
    chip_taken_.assign(size_t(pool_.chips()), 0);
    std::vector<char> &chip_taken = chip_taken_;

    retry_pick_.clear();
    for (size_t i = 0; i < retry_.size(); ++i)
        if (retry_[i].eligible_us <= now)
            retry_pick_.push_back(i); // detlint:allow(R8) bounded by
                                      // the retry queue
    std::sort(retry_pick_.begin(), retry_pick_.end(),
              [this](size_t a, size_t b) {
                  const InFlightFrame &fa = retry_[a].frame;
                  const InFlightFrame &fb = retry_[b].frame;
                  if (fa.ticket.arrival_us != fb.ticket.arrival_us)
                      return fa.ticket.arrival_us <
                             fb.ticket.arrival_us;
                  if (fa.session != fb.session)
                      return fa.session < fb.session;
                  return fa.ticket.frame_index <
                         fb.ticket.frame_index;
              });
    size_t next_retry = 0;

    for (;;) {
        int chip = -1;
        for (int c = 0; c < pool_.chips(); ++c) {
            if (!chip_taken[size_t(c)] && pool_.alive(c) &&
                pool_.busyUntil(c) <= now) {
                chip = c;
                break;
            }
        }
        if (chip < 0)
            break;
        if (num_batches_ == batches_.size())
            batches_.emplace_back(); // detlint:allow(R8) pooled,
                                     // bounded by chip count
        Batch &batch = batches_[num_batches_];
        batch.chip = chip;
        batch.items.clear();
        for (int b = 0; b < cfg_.max_batch; ++b) {
            if (next_retry < retry_pick_.size()) {
                // Re-dispatch a failed-over frame: its functional
                // result already exists, only the timing re-bills.
                const InFlightFrame &src =
                    retry_[retry_pick_[next_retry]].frame;
                ++next_retry;
                PendingFrame pf;
                pf.session = src.session;
                pf.ticket = src.ticket;
                pf.refresh = src.refresh;
                pf.degraded_res = src.degraded_res;
                pf.pipeline_drop = src.pipeline_drop;
                pf.attempts = src.attempts + 1;
                pf.first_dispatch = false;
                pf.batch = int(num_batches_);
                batch.items.push_back( // detlint:allow(R8) pooled,
                                       // bounded by max_batch
                    dispatched.size());
                dispatched.push_back(pf);
                continue;
            }
            int best = -1;
            long long best_arrival = 0;
            for (size_t s = 0; s < sessions_.size(); ++s) {
                Session &sess = *sessions_[s];
                if (!sess.active())
                    continue;
                const auto arrival = sess.queue().frontArrival();
                if (!arrival || *arrival > now)
                    continue;
                if (best < 0 || *arrival < best_arrival) {
                    best = int(s);
                    best_arrival = *arrival;
                }
            }
            if (best < 0)
                break;
            PendingFrame pf;
            pf.session = best;
            // frontArrival() just returned a value and the scheduler
            // is the only consumer, so the queue cannot have drained.
            const bool popped =
                sessions_[size_t(best)]->queue().pop(&pf.ticket);
            eyecod_assert(popped,
                          "scheduler pop raced an empty queue "
                          "(session %d)", best);
            pf.degraded_res = degraded_res_tick;
            pf.batch = int(num_batches_);
            batch.items.push_back( // detlint:allow(R8) pooled,
                                   // bounded by max_batch
                dispatched.size());
            dispatched.push_back(pf);
        }
        if (batch.items.empty())
            break;
        chip_taken[size_t(chip)] = 1;
        ++num_batches_;
    }

    // Compact consumed retries, preserving order of the survivors.
    if (next_retry > 0) {
        std::sort(retry_pick_.begin(),
                  retry_pick_.begin() + long(next_retry));
        size_t out = 0;
        size_t consumed = 0;
        for (size_t i = 0; i < retry_.size(); ++i) {
            if (consumed < next_retry &&
                retry_pick_[consumed] == i) {
                ++consumed;
                continue;
            }
            if (out != i)
                retry_[out] = retry_[i];
            ++out;
        }
        retry_.resize(out);
    }

    if (dispatched.empty())
        return;

    // --- Phase 2 (parallel): functional serving of FIRST-dispatch
    // frames only (re-dispatches already have their gaze). One chunk
    // per session — a session's frames run in dispatch order on one
    // thread, and chunk boundaries depend only on the (serial,
    // deterministic) phase-1 outcome, so the gaze streams are
    // bitwise independent of the scheduler thread count.
    num_groups_ = 0;
    for (size_t i = 0; i < dispatched.size(); ++i) {
        if (!dispatched[i].first_dispatch)
            continue;
        const int s = dispatched[i].session;
        size_t g = 0;
        while (g < num_groups_ && by_session_[g].first != s)
            ++g;
        if (g == num_groups_) {
            if (num_groups_ == by_session_.size())
                by_session_.emplace_back( // detlint:allow(R8)
                                          // pooled, bounded by the
                                          // session count
                    s, std::vector<size_t>{});
            by_session_[g].first = s;
            by_session_[g].second.clear();
            ++num_groups_;
        }
        by_session_[g].second.push_back(i); // detlint:allow(R8)
                                            // pooled tick scratch
    }
    sched_pool_.parallelFor(
        long(num_groups_), 1, [&](long lo, long hi) {
            for (long g = lo; g < hi; ++g) {
                const auto &group = by_session_[size_t(g)];
                Session &sess = *sessions_[size_t(group.first)];
                for (size_t idx : group.second) {
                    PendingFrame &pf = dispatched[idx];
                    const Result<core::GazeSample> r =
                        sess.serveFrame(renderer_, pf.ticket,
                                        pf.degraded_res);
                    if (r.ok()) {
                        pf.refresh = r.value().roi_refreshed;
                    } else {
                        // The chip still turned the frame around;
                        // bill the steady frame cost.
                        pf.pipeline_drop = true;
                        pf.refresh = false;
                    }
                }
            }
        });

    // --- Phase 3 (serial): timing, in batch order. Costs come from
    // the serving chip's (possibly lane-degraded) model, so a
    // retired-lane chip genuinely turns frames around slower.
    // Completion metrics are recorded when virtual time passes the
    // batch's completion (finalizeDue), not here — a chip can still
    // die under this batch.
    for (size_t bi = 0; bi < num_batches_; ++bi) {
        const Batch &batch = batches_[bi];
        const ServiceModel &cm = pool_.chipModel(batch.chip);
        costs_.clear();
        for (size_t idx : batch.items) {
            const PendingFrame &pf = dispatched[idx];
            double cost = pf.refresh ? cm.seg_frame_us
                                     : cm.gaze_frame_us;
            if (pf.degraded_res)
                cost *= cfg_.resolution_cost_factor;
            costs_.push_back(cost); // detlint:allow(R8) pooled,
                                    // bounded by max_batch
        }
        const double service = pool_.batchServiceUs(costs_);
        const long long completion =
            pool_.dispatch(batch.chip, now, service);
        InFlightBatch &fl = inflight_[size_t(batch.chip)];
        eyecod_assert(!fl.active,
                      "batch dispatched onto occupied chip %d",
                      batch.chip);
        fl.active = true;
        fl.completion_us = completion;
        fl.frames.clear();
        for (size_t idx : batch.items) {
            const PendingFrame &pf = dispatched[idx];
            fl.frames.push_back( // detlint:allow(R8) pooled, bounded
                                 // by max_batch
                InFlightFrame{pf.session, pf.ticket, pf.refresh,
                              pf.degraded_res, pf.pipeline_drop,
                              pf.attempts});
        }
    }
}

FleetMetrics
ServingEngine::fleetMetrics() const
{
    FleetMetrics f;
    StreamingHistogram merged(1.0, 1e8);
    double latency_weighted = 0.0;
    uint64_t latency_count = 0;
    for (const auto &sess : sessions_) {
        const SessionMetrics &m = sess->metrics();
        f.submitted += m.submitted;
        f.completed += m.completed;
        f.queue_drops += m.queue_drops;
        f.drops_backpressure += m.drops_backpressure;
        f.drops_shed_on_close += m.drops_shed_on_close;
        f.drops_rate_downgrade += m.drops_rate_downgrade;
        f.drops_failover += m.drops_failover;
        f.pipeline_drops += m.pipeline_drops;
        f.deadline_misses += m.deadline_misses;
        f.redispatched_frames += m.redispatched_frames;
        f.degraded_res_frames += m.degraded_res_frames;
        f.drop_log_overflow += m.drop_log_overflow;
        f.steady_frames += m.steady_frames;
        f.steady_allocs += m.steady_allocs;
        f.refresh_frames += m.refresh_frames;
        f.refresh_allocs += m.refresh_allocs;
        f.peak_arena_bytes = std::max(
            f.peak_arena_bytes,
            (long long)sess->arenaStats().peak_epoch_bytes);
        merged.merge(m.latency_hist);
        latency_weighted +=
            m.latency_us.mean() * double(m.latency_us.count());
        latency_count += m.latency_us.count();
    }
    f.sessions_opened = sessionCount();
    f.sessions_rejected = rejected_sessions_;
    f.sessions_closed = closed_sessions_;
    f.chip_failures = chip_failures_;
    f.chip_rejoins = chip_rejoins_;
    f.lanes_retired = lanes_retired_;
    f.degradation_tier = health_.tier();
    f.tier_transitions = health_.transitions();
    for (int t = 0; t <= kNumDegradationTiers; ++t)
        f.tier_residency[t] = health_.residencyTicks(t);
    f.makespan_us = last_completion_us_;
    if (f.completed > 0 && f.makespan_us > 0)
        f.aggregate_fps =
            double(f.completed) * 1e6 / double(f.makespan_us);
    if (f.makespan_us > 0)
        f.backend_utilization =
            pool_.totalBusyUs() /
            (double(pool_.chips()) * double(f.makespan_us));
    if (f.completed > 0)
        f.deadline_miss_rate =
            double(f.deadline_misses) / double(f.completed);
    if (f.submitted > 0)
        f.drop_rate = double(f.queue_drops) / double(f.submitted);
    if (latency_count > 0)
        f.mean_latency_us =
            latency_weighted / double(latency_count);
    f.p50_latency_us = merged.p50();
    f.p95_latency_us = merged.p95();
    f.p99_latency_us = merged.p99();
    f.p999_latency_us = merged.quantile(0.999);
    f.failover_p99_latency_us = failover_latency_hist_.p99();
    return f;
}

void
ServingEngine::exportMetrics(PerfJson &json,
                             const std::string &section) const
{
    const FleetMetrics f = fleetMetrics();
    json.set(section, "sessions_opened",
             double(f.sessions_opened));
    json.set(section, "sessions_rejected",
             double(f.sessions_rejected));
    json.set(section, "sessions_closed", double(f.sessions_closed));
    json.set(section, "submitted", double(f.submitted));
    json.set(section, "completed", double(f.completed));
    json.set(section, "queue_drops", double(f.queue_drops));
    json.set(section, "drops_backpressure",
             double(f.drops_backpressure));
    json.set(section, "drops_shed_on_close",
             double(f.drops_shed_on_close));
    json.set(section, "drops_rate_downgrade",
             double(f.drops_rate_downgrade));
    json.set(section, "drops_failover", double(f.drops_failover));
    json.set(section, "pipeline_drops", double(f.pipeline_drops));
    json.set(section, "deadline_misses",
             double(f.deadline_misses));
    json.set(section, "chip_failures", double(f.chip_failures));
    json.set(section, "chip_rejoins", double(f.chip_rejoins));
    json.set(section, "lanes_retired", double(f.lanes_retired));
    json.set(section, "redispatched_frames",
             double(f.redispatched_frames));
    json.set(section, "degraded_res_frames",
             double(f.degraded_res_frames));
    json.set(section, "drop_log_overflow",
             double(f.drop_log_overflow));
    json.set(section, "degradation_tier",
             double(f.degradation_tier));
    json.set(section, "tier_transitions",
             double(f.tier_transitions));
    for (int t = 0; t <= kNumDegradationTiers; ++t)
        json.set(section,
                 "tier" + std::to_string(t) + "_residency_ticks",
                 double(f.tier_residency[t]));
    json.set(section, "aggregate_fps", f.aggregate_fps);
    json.set(section, "backend_utilization",
             f.backend_utilization);
    json.set(section, "deadline_miss_rate", f.deadline_miss_rate);
    json.set(section, "drop_rate", f.drop_rate);
    json.set(section, "mean_latency_us", f.mean_latency_us);
    json.set(section, "p50_latency_us", f.p50_latency_us);
    json.set(section, "p95_latency_us", f.p95_latency_us);
    json.set(section, "p99_latency_us", f.p99_latency_us);
    json.set(section, "p999_latency_us", f.p999_latency_us);
    json.set(section, "failover_p99_latency_us",
             f.failover_p99_latency_us);
    json.set(section, "makespan_us", double(f.makespan_us));
    json.set(section, "steady_frames", double(f.steady_frames));
    json.set(section, "steady_allocs", double(f.steady_allocs));
    json.set(section, "refresh_frames", double(f.refresh_frames));
    json.set(section, "refresh_allocs", double(f.refresh_allocs));
    json.set(section, "peak_arena_bytes",
             double(f.peak_arena_bytes));

    for (int id = 0; id < sessionCount(); ++id) {
        const SessionMetrics &m = sessionMetrics(id);
        const std::string sub =
            section + ".s" + std::to_string(id);
        json.set(sub, "submitted", double(m.submitted));
        json.set(sub, "completed", double(m.completed));
        json.set(sub, "queue_drops", double(m.queue_drops));
        json.set(sub, "drops_backpressure",
                 double(m.drops_backpressure));
        json.set(sub, "drops_shed_on_close",
                 double(m.drops_shed_on_close));
        json.set(sub, "drops_rate_downgrade",
                 double(m.drops_rate_downgrade));
        json.set(sub, "drops_failover", double(m.drops_failover));
        json.set(sub, "deadline_misses",
                 double(m.deadline_misses));
        json.set(sub, "max_queue_depth",
                 double(m.max_queue_depth));
        json.set(sub, "redispatched_frames",
                 double(m.redispatched_frames));
        json.set(sub, "degraded_res_frames",
                 double(m.degraded_res_frames));
        json.set(sub, "p50_latency_us", m.latency_hist.p50());
        json.set(sub, "p99_latency_us", m.latency_hist.p99());
        json.set(sub, "steady_frames", double(m.steady_frames));
        json.set(sub, "steady_allocs", double(m.steady_allocs));
        json.set(sub, "refresh_allocs", double(m.refresh_allocs));
        json.set(sub, "arena_peak_bytes",
                 double(sessionRef(id).arenaStats()
                            .peak_epoch_bytes));
    }
}

std::vector<uint8_t>
ServingEngine::saveSnapshot() const
{
    snap::SnapshotWriter w;
    snap::writeHeader(w);
    fields(*this, w);
    snap::sealSnapshot(w);
    return w.take();
}

Status
ServingEngine::restoreSnapshot(const std::vector<uint8_t> &data)
{
    // Integrity first: the seal rejects any truncation or bit flip
    // before a single field is decoded.
    Result<size_t> payload = snap::checkSeal(data.data(), data.size());
    if (!payload.ok())
        return payload.status();
    snap::SnapshotReader r(data.data(), payload.value());
    Status s = snap::checkHeader(r);
    if (!s.isOk())
        return s;
    fields(*this, r);
    return r.status().isOk() ? r.expectEnd() : r.status();
}

} // namespace serve
} // namespace eyecod
