#include "support/table.hh"

#include <algorithm>
#include <iomanip>

#include "support/diag.hh"
#include "support/strutil.hh"

namespace swp
{

Table::Table(std::vector<std::string> header) : header_(std::move(header))
{
    SWP_ASSERT(!header_.empty(), "table needs at least one column");
}

Table &
Table::row()
{
    rows_.emplace_back();
    return *this;
}

Table &
Table::add(const std::string &cell)
{
    SWP_ASSERT(!rows_.empty(), "add() before row()");
    SWP_ASSERT(rows_.back().size() < header_.size(),
               "row has more cells than header columns");
    rows_.back().push_back(cell);
    return *this;
}

Table &
Table::add(const char *cell)
{
    return add(std::string(cell));
}

Table &
Table::add(long v)
{
    return add(strprintf("%ld", v));
}

Table &
Table::add(int v)
{
    return add(long(v));
}

Table &
Table::add(double v, int decimals)
{
    return add(strprintf("%.*f", decimals, v));
}

void
Table::print(std::ostream &os) const
{
    std::vector<std::size_t> width(header_.size());
    for (std::size_t c = 0; c < header_.size(); ++c)
        width[c] = header_[c].size();
    for (const auto &row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c)
            width[c] = std::max(width[c], row[c].size());
    }

    auto emit = [&](const std::vector<std::string> &cells) {
        for (std::size_t c = 0; c < header_.size(); ++c) {
            const std::string &text = c < cells.size() ? cells[c] : "";
            os << std::left << std::setw(int(width[c])) << text;
            if (c + 1 < header_.size())
                os << "  ";
        }
        os << '\n';
    };

    emit(header_);
    std::size_t total = 0;
    for (std::size_t c = 0; c < header_.size(); ++c)
        total += width[c] + (c + 1 < header_.size() ? 2 : 0);
    os << std::string(total, '-') << '\n';
    for (const auto &row : rows_)
        emit(row);
}

} // namespace swp
