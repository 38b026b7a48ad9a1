#include "mem/dram_channel.hh"

#include <algorithm>

#include "util/logging.hh"

namespace tt::mem {

DramChannel::DramChannel(sim::EventQueue &events, const DramConfig &config)
    : events_(events), config_(config),
      banks_(static_cast<std::size_t>(config.totalBanks())),
      ranks_(static_cast<std::size_t>(config.ranks))
{
    tt_assert(config_.ranks >= 1 && config_.banks_per_rank >= 1,
              "channel needs at least one bank");
    tt_assert(config_.row_bytes % kLineBytes == 0,
              "row size must be a whole number of lines");
    // Rank refreshes are staggered across the interval (the first
    // refresh falls one full interval after start-up).
    const sim::Tick period = config_.t_refi;
    for (int r = 0; r < config_.ranks; ++r) {
        Rank &rank = ranks_[static_cast<std::size_t>(r)];
        rank.refresh_offset = static_cast<sim::Tick>(r) * period /
                              static_cast<sim::Tick>(config_.ranks);
        rank.window_start = rank.refresh_offset + period;
        rank.next_refresh_end = rank.window_start + config_.t_rfc;
    }
}

void
DramChannel::mapAddress(std::uint64_t line_addr, int &bank,
                        std::uint64_t &row) const
{
    const std::uint64_t lines_per_row = config_.linesPerRow();
    const auto total_banks =
        static_cast<std::uint64_t>(config_.totalBanks());
    if (config_.mapping == AddressMapping::kPageInterleave) {
        // A stream walks one full row buffer, then continues in the
        // next bank: long row-hit runs, banks covered over time.
        const std::uint64_t row_index = line_addr / lines_per_row;
        bank = static_cast<int>(row_index % total_banks);
        row = row_index / total_banks;
    } else {
        // Consecutive lines round-robin the banks; the row advances
        // once per full sweep of a row's worth of lines in each bank.
        bank = static_cast<int>(line_addr % total_banks);
        const std::uint64_t stripe = line_addr / total_banks;
        row = stripe / lines_per_row;
    }
}

void
DramChannel::submit(DramRequest request)
{
    Pending pending;
    mapAddress(request.line_addr, pending.bank, pending.row);
    pending.arrival = events_.now();
    pending.is_write = request.is_write;
    pending.slot = completions_.put(std::move(request.on_complete));
    queue_.push_back(pending);
    ++in_flight_;
    maybeSchedulePick();
}

void
DramChannel::maybeSchedulePick()
{
    if (pick_scheduled_ || queue_.empty())
        return;
    pick_scheduled_ = true;
    const sim::Tick when = std::max(events_.now(), bus_free_);
    events_.schedule(when, [this] { pick(); });
}

sim::Tick
DramChannel::prepLatency(const Bank &bank, std::uint64_t row) const
{
    if (!bank.row_open)
        return config_.t_rcd; // activate the row
    if (bank.open_row == row)
        return 0; // row hit
    // Precharge + activate; write recovery gates the precharge when
    // the bank's last column access was a write.
    const sim::Tick recovery = bank.last_was_write ? config_.t_wr : 0;
    return recovery + config_.t_rp + config_.t_rcd;
}

sim::Tick
DramChannel::refreshAdjust(int rank, sim::Tick t)
{
    if (config_.disable_refresh)
        return t;
    Rank &state = ranks_[static_cast<std::size_t>(rank)];
    const sim::Tick period = config_.t_refi;
    if (t < state.refresh_offset + period)
        return t; // before the first refresh
    // Command ticks move by nanoseconds, refresh windows by
    // microseconds: the cached window is almost always the one.
    if (t < state.window_start || t - state.window_start >= period)
        state.window_start =
            state.refresh_offset +
            (t - state.refresh_offset) / period * period;
    if (t < state.window_start + config_.t_rfc) {
        ++stats_.refresh_stalls;
        return state.window_start + config_.t_rfc;
    }
    return t;
}

void
DramChannel::applyRefreshToBanks(int rank, sim::Tick now)
{
    if (config_.disable_refresh)
        return;
    Rank &state = ranks_[static_cast<std::size_t>(rank)];
    if (now < state.next_refresh_end)
        return; // no refresh completed since we last looked
    // The latest refresh window to complete precharged every row in
    // the rank.
    const sim::Tick period = config_.t_refi;
    const sim::Tick last_end =
        state.refresh_offset +
        (now - state.refresh_offset - config_.t_rfc) / period * period +
        config_.t_rfc;
    state.next_refresh_end = last_end + period;
    const int first = rank * config_.banks_per_rank;
    for (int b = first; b < first + config_.banks_per_rank; ++b) {
        Bank &bank = banks_[static_cast<std::size_t>(b)];
        if (bank.ready < last_end) {
            bank.row_open = false;
            bank.hit_streak = 0;
        }
    }
}

void
DramChannel::pick()
{
    pick_scheduled_ = false;
    if (queue_.empty())
        return;

    const sim::Tick now = events_.now();
    for (int r = 0; r < config_.ranks; ++r)
        applyRefreshToBanks(r, now);

    // FR-FCFS: oldest row hit first, capped so a hit streak cannot
    // starve the other requesters; otherwise oldest request.
    std::size_t best = 0;
    for (std::size_t i = 0; i < queue_.size(); ++i) {
        const Pending &cand = queue_[i];
        const Bank &bank = banks_[static_cast<std::size_t>(cand.bank)];
        const bool is_hit =
            bank.row_open && bank.open_row == cand.row &&
            bank.ready <= now;
        if (is_hit && bank.hit_streak < config_.max_row_hit_streak) {
            best = i;
            break;
        }
    }

    const Pending chosen = queue_[best];
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(best));

    Bank &bank = banks_[static_cast<std::size_t>(chosen.bank)];
    const int rank_index = rankOf(chosen.bank);
    Rank &rank = ranks_[static_cast<std::size_t>(rank_index)];

    const sim::Tick prep = prepLatency(bank, chosen.row);
    const bool activates = prep != 0;
    sim::Tick cmd_ready = std::max(now, bank.ready);
    if (activates) {
        // Activation pacing: tRRD from the rank's last ACT, tFAW
        // over its last four ACTs (both only once real activations
        // populate the history).
        if (rank.act_count >= 1)
            cmd_ready =
                std::max(cmd_ready, rank.last_act + config_.t_rrd);
        if (rank.act_count >= 4)
            cmd_ready = std::max(
                cmd_ready, rank.acts[rank.act_head] + config_.t_faw);
    }
    cmd_ready = refreshAdjust(rank_index, cmd_ready);
    cmd_ready += prep;

    // Bus turnaround gaps relative to the previous transfer.
    sim::Tick bus_ready = bus_free_;
    if (last_rank_ >= 0 && last_rank_ != rank_index) {
        bus_ready += config_.t_rtrs;
        ++stats_.rank_switches;
    } else if (last_was_write_ && !chosen.is_write) {
        bus_ready += config_.t_wtr;
        ++stats_.write_read_turnarounds;
    }

    const sim::Tick data_start = std::max(cmd_ready, bus_ready);
    const sim::Tick data_end = data_start + config_.t_burst;

    // Statistics.
    if (!bank.row_open)
        ++stats_.row_misses;
    else if (bank.open_row == chosen.row)
        ++stats_.row_hits;
    else
        ++stats_.row_conflicts;
    if (chosen.is_write)
        ++stats_.writes;
    else
        ++stats_.reads;
    stats_.queue_wait_ticks += data_start - chosen.arrival;
    stats_.busy_ticks += config_.t_burst;

    // Bank and rank bookkeeping.
    if (bank.row_open && bank.open_row == chosen.row) {
        ++bank.hit_streak;
    } else {
        bank.hit_streak = 1;
    }
    if (activates) {
        const sim::Tick act_at = cmd_ready - config_.t_rcd;
        rank.acts[rank.act_head] = act_at;
        rank.act_head = (rank.act_head + 1) % 4;
        rank.last_act = act_at;
        ++rank.act_count;
    }
    if (config_.page_policy == PagePolicy::kClosed) {
        // Auto-precharge: the row closes behind the access (fold the
        // precharge into the bank busy time).
        bank.row_open = false;
        bank.ready = data_end + config_.t_rp +
                     (chosen.is_write ? config_.t_wr : 0);
        bank.hit_streak = 0;
    } else {
        bank.row_open = true;
        bank.open_row = chosen.row;
        bank.ready = data_end;
    }
    bank.last_was_write = chosen.is_write;

    bus_free_ = data_end;
    last_rank_ = rank_index;
    last_was_write_ = chosen.is_write;

    // Both directions complete a CAS latency after the data slot:
    // reads when the data returns, stores when the line's ownership
    // round trip finishes (ordinary cached stores read-for-ownership
    // before retiring, so their visible cost mirrors a read).
    const sim::Tick done = data_end + config_.t_cl;
    events_.schedule(done, [this, slot = chosen.slot] { complete(slot); });

    maybeSchedulePick();
}

void
DramChannel::complete(std::uint32_t slot)
{
    --in_flight_;
    sim::Callback cb = completions_.take(slot);
    if (cb)
        cb();
}

double
DramChannel::busUtilisation() const
{
    const sim::Tick now = events_.now();
    if (now == 0)
        return 0.0;
    return static_cast<double>(stats_.busy_ticks) /
           static_cast<double>(now);
}

double
DramChannel::rowHitRate() const
{
    const std::uint64_t total =
        stats_.row_hits + stats_.row_misses + stats_.row_conflicts;
    if (total == 0)
        return 0.0;
    return static_cast<double>(stats_.row_hits) /
           static_cast<double>(total);
}

} // namespace tt::mem
