/**
 * @file
 * Scoped scratch directory shared by the test suites.
 *
 * ctest runs every gtest case as its own process, possibly many at
 * once (`ctest -j`). A directory named only by a fixed tag would be
 * shared by concurrent cases, and each one's cleanup would delete
 * the files another is still reading. ScratchDir therefore appends
 * the running test's name and the process id to the tag, so every
 * process gets its own directory. Paths are relative to the working
 * directory, which ctest sets to the test binary's build directory.
 */

#ifndef LAG_TESTS_SCRATCH_DIR_HH
#define LAG_TESTS_SCRATCH_DIR_HH

#include <gtest/gtest.h>
#include <unistd.h>

#include <cctype>
#include <filesystem>
#include <string>

namespace lag::test
{

/** Unique per-process directory: created empty, removed on exit. */
struct ScratchDir
{
    std::string path;

    explicit ScratchDir(const std::string &tag) : path(uniqueName(tag))
    {
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }

    ~ScratchDir() { std::filesystem::remove_all(path); }

    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    /** `<tag>-<Suite.Test>-<pid>`, with characters that do not
     * belong in a file name (parameterized tests add '/')
     * replaced by '_'. */
    static std::string
    uniqueName(const std::string &tag)
    {
        std::string test = "static";
        if (const ::testing::TestInfo *info =
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()) {
            test = std::string(info->test_suite_name()) + "." +
                   info->name();
        }
        for (char &c : test) {
            if (std::isalnum(static_cast<unsigned char>(c)) == 0 &&
                c != '.' && c != '_' && c != '-')
                c = '_';
        }
        return tag + "-" + test + "-" + std::to_string(::getpid());
    }
};

} // namespace lag::test

#endif // LAG_TESTS_SCRATCH_DIR_HH
