/**
 * @file
 * Table/CSV emitter tests.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "util/logging.h"
#include "util/table.h"

namespace ecov {
namespace {

/** Render a table into a string via a tmpfile. */
std::string
render(const TextTable &t)
{
    std::FILE *f = std::tmpfile();
    t.print(f);
    std::fseek(f, 0, SEEK_SET);
    char buf[4096];
    std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
    buf[n] = '\0';
    std::fclose(f);
    return std::string(buf);
}

TEST(TextTable, HeaderAndRows)
{
    TextTable t({"policy", "co2_g", "runtime_h"});
    t.addRow({"agnostic", "18.2", "2.1"});
    t.addRow({"w&s-2x", "13.4", "5.4"});
    std::string out = render(t);
    EXPECT_NE(out.find("policy"), std::string::npos);
    EXPECT_NE(out.find("agnostic"), std::string::npos);
    EXPECT_NE(out.find("w&s-2x"), std::string::npos);
    // Separator line after the header.
    EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TextTable, RowWidthMismatchIsFatal)
{
    TextTable t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), FatalError);
}

TEST(TextTable, FmtPrecision)
{
    EXPECT_EQ(TextTable::fmt(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::fmt(3.14159, 0), "3");
    EXPECT_EQ(TextTable::fmt(-1.5, 1), "-1.5");
}

TEST(CsvWriter, HeaderAndRows)
{
    std::FILE *f = std::tmpfile();
    {
        CsvWriter w(f, {"t", "v"});
        w.row({1.0, 2.5});
        w.row({2.0, 3.5});
    }
    std::fseek(f, 0, SEEK_SET);
    char buf[256];
    std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
    buf[n] = '\0';
    std::fclose(f);
    EXPECT_STREQ(buf, "t,v\n1,2.5\n2,3.5\n");
}

TEST(Logging, FatalThrows)
{
    EXPECT_THROW(fatal("boom"), FatalError);
    try {
        fatal("specific message");
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "specific message");
    }
}

} // namespace
} // namespace ecov
