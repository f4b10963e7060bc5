/**
 * @file
 * ASCII table and CSV rendering used by the benchmark harnesses to print
 * the rows/series of the paper's tables and figures.
 */

#ifndef SWP_SUPPORT_TABLE_HH
#define SWP_SUPPORT_TABLE_HH

#include <ostream>
#include <string>
#include <vector>

namespace swp
{

/**
 * A simple column-aligned text table.
 *
 * Cells are strings; numeric convenience setters format with a fixed
 * precision. The table renders either as aligned ASCII (for terminals) or
 * as CSV (for downstream plotting).
 */
class Table
{
  public:
    explicit Table(std::vector<std::string> header);

    /** Begin a new row; subsequent add() calls fill it left to right. */
    Table &row();

    Table &add(const std::string &cell);
    Table &add(const char *cell);
    Table &add(long v);
    Table &add(int v);
    /** Floating point cell with the given number of decimals. */
    Table &add(double v, int decimals = 2);

    /** Column headers (for machine-readable re-serialization). */
    const std::vector<std::string> &header() const { return header_; }

    /** Formatted cells, row-major (for machine-readable re-serialization). */
    const std::vector<std::vector<std::string>> &rows() const
    {
        return rows_;
    }

    /** Render as aligned ASCII with a rule under the header. */
    void print(std::ostream &os) const;

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace swp

#endif // SWP_SUPPORT_TABLE_HH
