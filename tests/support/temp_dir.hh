/**
 * @file
 * ScopedTempDir: a hermetic per-test temp directory.
 *
 * ::testing::TempDir() is shared across test runs; a test that writes
 * fixed filenames under it can see a previous run's leftovers and has
 * to remember to clean them up.  ScopedTempDir creates a fresh
 * uniquely-named directory (honoring TMPDIR, falling back to the
 * system temp dir) and removes it on destruction, so checkpoint
 * tests never depend on prior state and never leak it.
 */

#ifndef GPUSCALE_TESTS_SUPPORT_TEMP_DIR_HH
#define GPUSCALE_TESTS_SUPPORT_TEMP_DIR_HH

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>

namespace gpuscale {
namespace test {

class ScopedTempDir
{
  public:
    explicit ScopedTempDir(const std::string &tag)
    {
        static std::atomic<unsigned> serial{0};
        const char *env = std::getenv("TMPDIR");
        const std::filesystem::path base =
            env && *env ? std::filesystem::path(env)
                        : std::filesystem::temp_directory_path();
        path_ = (base /
                 (tag + "." + std::to_string(::getpid()) + "." +
                  std::to_string(serial.fetch_add(1))))
                    .string();
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }

    ~ScopedTempDir()
    {
        // Best-effort: a failed cleanup only leaks a temp dir.
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
        if (ec)
            std::fprintf(stderr, "ScopedTempDir: leak %s: %s\n",
                         path_.c_str(), ec.message().c_str());
    }

    ScopedTempDir(const ScopedTempDir &) = delete;
    ScopedTempDir &operator=(const ScopedTempDir &) = delete;

    const std::string &path() const { return path_; }

    /** Path of a child entry inside the directory. */
    std::string
    sub(const std::string &name) const
    {
        return path_ + "/" + name;
    }

  private:
    std::string path_;
};

} // namespace test
} // namespace gpuscale

#endif // GPUSCALE_TESTS_SUPPORT_TEMP_DIR_HH
