#include "obs/timeseries.hh"

#include <charconv>
#include <cstring>

namespace tt::obs {

namespace {

/** Appends to a stack buffer; 1 KiB holds a row even at the largest
 *  finite double. */
class RowBuffer
{
  public:
    void
    text(const char *s)
    {
        const std::size_t n = std::strlen(s);
        std::memcpy(end_, s, n);
        end_ += n;
    }

    template <class T>
    void
    number(T value)
    {
        end_ = std::to_chars(end_, buf_ + sizeof buf_, value).ptr;
    }

    /** Fixed notation, 9 decimals: the bytes of printf's "%.9f" (and
     *  of `std::fixed` with `std::setprecision(9)`). */
    void
    fixed9(double value)
    {
        end_ = std::to_chars(end_, buf_ + sizeof buf_, value,
                             std::chars_format::fixed, 9)
                   .ptr;
    }

    void write(std::ostream &os) const { os.write(buf_, end_ - buf_); }

  private:
    char buf_[1024];
    char *end_ = buf_;
};

} // namespace

void
writeTimeseriesRow(const TimeseriesSample &sample, std::ostream &os)
{
    // One stack buffer and no stream formatting state.
    RowBuffer row;
    row.text("{\"t\":");
    row.fixed9(sample.time);
    row.text(",\"mtl\":");
    row.number(sample.mtl);
    row.text(",\"mem_in_flight\":");
    row.number(sample.mem_in_flight);
    row.text(",\"tasks_done\":");
    row.number(sample.tasks_done);
    row.text(",\"pairs_done\":");
    row.number(sample.pairs_done);
    row.text(",\"ready_memory\":");
    row.number(sample.ready_memory);
    row.text(",\"ready_compute\":");
    row.number(sample.ready_compute);
    row.text(",\"selections\":");
    row.number(sample.selections);
    row.text(",\"degraded\":");
    row.text(sample.degraded ? "true" : "false");
    row.text(",\"queue_depth\":");
    row.number(sample.queue_depth);
    row.text(",\"backpressure\":");
    row.number(sample.backpressure);
    row.text("}\n");
    row.write(os);
}

} // namespace tt::obs
