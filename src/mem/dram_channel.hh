/**
 * @file
 * One DDR3 channel: per-bank row-buffer state, per-rank activation
 * and refresh constraints, a shared data bus with turnaround gaps,
 * and an FR-FCFS request scheduler.
 *
 * This is the component that produces the paper's central effect:
 * when k memory-task streams interleave on one channel, each stream's
 * lines wait longer for the data bus, suffer row-buffer conflicts
 * whenever two streams touch the same bank, and pay rank-switch /
 * write-read turnaround gaps that a solo stream avoids -- so the
 * per-task time T_mk grows with k (approximately T_ml + k*T_ql, the
 * queuing decomposition of Sec. IV-C).
 *
 * Modelled constraints (all request-granular, see dram_config.hh):
 *   row management  prep = 0 (hit) / tRCD (closed) / tWR?+tRP+tRCD
 *   activation      tRRD between ACTs, tFAW over any four ACTs/rank
 *   bus turnaround  tRTRS on rank switch, tWTR on write->read
 *   refresh         deterministic [k*tREFI, k*tREFI+tRFC) windows
 *                   per rank (staggered), gating command issue and
 *                   closing the rank's open rows
 */

#ifndef TT_MEM_DRAM_CHANNEL_HH
#define TT_MEM_DRAM_CHANNEL_HH

#include <cstdint>
#include <vector>

#include "mem/dram_config.hh"
#include "sim/callback.hh"
#include "sim/event_queue.hh"

namespace tt::mem {

/** One line-granular DRAM access. */
struct DramRequest
{
    std::uint64_t line_addr = 0; ///< global line number
    bool is_write = false;
    /** Invoked (at data-return time) when the access completes. */
    sim::Callback on_complete;
};

/** Aggregate channel statistics. */
struct ChannelStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t row_hits = 0;
    std::uint64_t row_misses = 0;    ///< bank had no open row
    std::uint64_t row_conflicts = 0; ///< bank had a different row open
    std::uint64_t rank_switches = 0; ///< transfers paying tRTRS
    std::uint64_t write_read_turnarounds = 0; ///< transfers paying tWTR
    std::uint64_t refresh_stalls = 0; ///< commands delayed by refresh
    std::uint64_t queue_wait_ticks = 0; ///< sum of queueing delays
    sim::Tick busy_ticks = 0;        ///< data-bus occupancy
};

/** FR-FCFS DDR3 channel model. */
class DramChannel
{
  public:
    DramChannel(sim::EventQueue &events, const DramConfig &config);

    /** Enqueue an access; completion fires via the request callback. */
    void submit(DramRequest request);

    /** Requests accepted but not yet completed. */
    int inFlight() const { return in_flight_; }

    const ChannelStats &stats() const { return stats_; }
    const DramConfig &config() const { return config_; }

    /** Data-bus utilisation over [0, now]. */
    double busUtilisation() const;

    /** Row-hit fraction of all serviced accesses. */
    double rowHitRate() const;

    /**
     * Map a channel-local line address to (bank, row) under the
     * configured address mapping. Exposed for tests.
     */
    void mapAddress(std::uint64_t line_addr, int &bank,
                    std::uint64_t &row) const;

  private:
    struct Bank
    {
        bool row_open = false;
        std::uint64_t open_row = 0;
        sim::Tick ready = 0; ///< earliest tick for the next command
        bool last_was_write = false; ///< tWR gates the next precharge
        int hit_streak = 0;
    };

    struct Rank
    {
        /** Ring of the last four activation ticks (tFAW window). */
        sim::Tick acts[4] = {0, 0, 0, 0};
        int act_head = 0;
        std::uint64_t act_count = 0; ///< activations issued so far
        sim::Tick last_act = 0;
        /**
         * The rank refreshes during [offset + k*tREFI, offset +
         * k*tREFI + tRFC) for k >= 1; offsets stagger the ranks.
         */
        sim::Tick refresh_offset = 0;
        /** Start of the refresh window refreshAdjust last looked up. */
        sim::Tick window_start = 0;
        /** End of the first refresh window not yet applied to banks. */
        sim::Tick next_refresh_end = 0;
    };

    /** A queued request; its callback waits in completions_. */
    struct Pending
    {
        std::uint64_t row = 0;
        sim::Tick arrival = 0;
        int bank = 0;
        std::uint32_t slot = 0; ///< completions_ slot
        bool is_write = false;
    };

    void maybeSchedulePick();
    void pick();
    void complete(std::uint32_t slot);
    /** Row-management latency this access would pay right now. */
    sim::Tick prepLatency(const Bank &bank, std::uint64_t row) const;
    /** Push `t` past any refresh window of `rank` covering it. */
    sim::Tick refreshAdjust(int rank, sim::Tick t);
    /** Close rows invalidated by refreshes that ended before `now`. */
    void applyRefreshToBanks(int rank, sim::Tick now);
    int rankOf(int bank) const { return bank / config_.banks_per_rank; }

    sim::EventQueue &events_;
    DramConfig config_;
    std::vector<Bank> banks_;
    std::vector<Rank> ranks_;
    /** Queued requests, oldest first. */
    std::vector<Pending> queue_;
    sim::CallbackPool completions_;
    sim::Tick bus_free_ = 0;
    int last_rank_ = -1;          ///< rank of the previous transfer
    bool last_was_write_ = false; ///< direction of previous transfer
    bool pick_scheduled_ = false;
    int in_flight_ = 0;
    ChannelStats stats_;
};

} // namespace tt::mem

#endif // TT_MEM_DRAM_CHANNEL_HH
