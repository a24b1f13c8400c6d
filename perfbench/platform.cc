/**
 * @file
 * Child processes, files, memory readings and the machine stanza.
 */
#include <fcntl.h>
#include <sched.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.hh"
#include "obs/json.hh"
#include "scaling/config_space.hh"

extern char **environ;

namespace perfbench {

double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
selfPeakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
selfCpuS()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) / 1e6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
childCpuS(int pid)
{
    // Fields after the parenthesised command name, which may hold
    // spaces: state is field 3, utime and stime are fields 14 and 15.
    const std::string stat =
        readFile("/proc/" + std::to_string(pid) + "/stat");
    const size_t paren = stat.rfind(')');
    if (paren == std::string::npos)
        return std::nan("");
    std::istringstream is(stat.substr(paren + 2));
    std::string field;
    double utime = 0, stime = 0;
    for (int i = 3; i <= 15 && is >> field; ++i) {
        if (i == 14)
            utime = std::strtod(field.c_str(), nullptr);
        if (i == 15)
            stime = std::strtod(field.c_str(), nullptr);
    }
    return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

CpuTimes
CpuTimes::now()
{
    // The aggregate "cpu" line: user nice system idle iowait irq
    // softirq steal ...
    std::istringstream is(readFile("/proc/stat"));
    std::string label;
    CpuTimes t;
    is >> label;
    for (int i = 0; i < 8; ++i) {
        double v = 0;
        is >> v;
        t.total += v;
        if (i == 7)
            t.steal = v;
    }
    return t;
}

double
CpuTimes::stealSince(const CpuTimes &before) const
{
    const double total = this->total - before.total;
    return total > 0 ? (steal - before.steal) / total : std::nan("");
}

double
childPeakRssMb(int pid)
{
    std::istringstream is(
        readFile("/proc/" + std::to_string(pid) + "/status"));
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return std::nan("");
}

namespace {

/** Children started by spawnChild() and not yet stopped. */
std::vector<int> &
liveChildren()
{
    static std::vector<int> pids;
    return pids;
}

std::vector<std::string> &
scratchDirs()
{
    static std::vector<std::string> dirs;
    return dirs;
}

void
reapAtExit()
{
    for (const int pid : liveChildren()) {
        kill(pid, SIGKILL);
        waitpid(pid, nullptr, 0);
    }
    liveChildren().clear();
    removeScratchDirs();
}

std::vector<char *>
cArgv(const std::vector<std::string> &argv)
{
    std::vector<char *> out;
    for (const auto &a : argv)
        out.push_back(const_cast<char *>(a.c_str()));
    out.push_back(nullptr);
    return out;
}

/** Wait for pid up to timeout_s; true and *status when it exited. */
bool
waitFor(int pid, double timeout_s, int *status)
{
    const double deadline = nowS() + timeout_s;
    while (true) {
        const pid_t r = waitpid(pid, status, WNOHANG);
        if (r == pid)
            return true;
        if (r < 0)
            return false;
        if (nowS() > deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
}

int
exitCode(int status)
{
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

} // namespace

int
runChild(const std::vector<std::string> &argv, std::string *out,
         double timeout_s)
{
    int fds[2];
    if (pipe2(fds, O_CLOEXEC) != 0)
        return -1;
    auto args = cArgv(argv);
    const pid_t pid = fork();
    if (pid < 0) {
        close(fds[0]);
        close(fds[1]);
        return -1;
    }
    if (pid == 0) {
        prctl(PR_SET_PDEATHSIG, SIGKILL);
        dup2(fds[1], STDOUT_FILENO);
        execv(args[0], args.data());
        _exit(127);
    }
    close(fds[1]);
    const double deadline = nowS() + timeout_s;
    char buf[4096];
    while (true) {
        pollfd p{fds[0], POLLIN, 0};
        const double left = deadline - nowS();
        if (left <= 0)
            break;
        if (poll(&p, 1, static_cast<int>(left * 1e3) + 1) <= 0)
            continue;
        const ssize_t n = read(fds[0], buf, sizeof buf);
        if (n <= 0)
            break;
        out->append(buf, static_cast<size_t>(n));
    }
    close(fds[0]);
    int status = 0;
    if (!waitFor(pid, std::max(0.1, deadline - nowS()), &status)) {
        kill(pid, SIGKILL);
        waitpid(pid, &status, 0);
        return -1;
    }
    return exitCode(status);
}

CpuSplit
splitCpus()
{
    CpuSplit s;
    cpu_set_t all;
    CPU_ZERO(&all);
    CPU_ZERO(&s.client);
    CPU_ZERO(&s.server);
    if (sched_getaffinity(0, sizeof all, &all) != 0 || CPU_COUNT(&all) < 2)
        return s;
    int last = -1;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &all)) {
            CPU_SET(cpu, &s.server);
            last = cpu;
        }
    }
    CPU_CLR(last, &s.server);
    CPU_SET(last, &s.client);
    s.split = true;
    return s;
}

int
spawnChild(const std::vector<std::string> &argv,
           const std::vector<std::string> &extra_env, const cpu_set_t *cpus)
{
    auto args = cArgv(argv);
    std::vector<std::string> env_store;
    for (char **e = environ; *e != nullptr; ++e)
        env_store.emplace_back(*e);
    for (const auto &e : extra_env)
        env_store.push_back(e);
    auto env = cArgv(env_store);
    const pid_t pid = fork();
    if (pid == 0) {
        prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (cpus != nullptr)
            sched_setaffinity(0, sizeof *cpus, cpus);
        dup2(STDERR_FILENO, STDOUT_FILENO);
        execve(args[0], args.data(), env.data());
        _exit(127);
    }
    if (pid > 0) {
        static const bool registered = std::atexit(reapAtExit) == 0;
        (void)registered;
        liveChildren().push_back(pid);
    }
    return pid;
}

int
stopChild(int pid, double timeout_s)
{
    auto &live = liveChildren();
    live.erase(std::remove(live.begin(), live.end(), pid), live.end());
    int status = 0;
    kill(pid, SIGTERM);
    if (waitFor(pid, timeout_s, &status))
        return exitCode(status);
    kill(pid, SIGKILL);
    waitpid(pid, &status, 0);
    return -1;
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::stringstream buf;
    buf << is.rdbuf();
    return buf.str();
}

long long
fileSize(const std::string &path)
{
    struct stat st{};
    if (stat(path.c_str(), &st) != 0)
        return -1;
    return static_cast<long long>(st.st_size);
}

std::string
makeScratchDir(const Options &opts, const std::string &tag)
{
    static int counter = 0;
    const std::string dir = opts.out_dir + "/tmp-" +
                            std::to_string(getpid()) + "-" + tag + "-" +
                            std::to_string(counter++);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    scratchDirs().push_back(dir);
    return dir;
}

void
removeScratchDirs()
{
    std::error_code ec;
    for (const auto &dir : scratchDirs())
        std::filesystem::remove_all(dir, ec);
    scratchDirs().clear();
}

std::string
firstDifference(const std::string &got, const std::string &want)
{
    if (got == want)
        return "";
    std::istringstream g(got), w(want);
    std::string gl, wl;
    for (size_t line = 1;; ++line) {
        const bool more_g = static_cast<bool>(std::getline(g, gl));
        const bool more_w = static_cast<bool>(std::getline(w, wl));
        if (!more_g && !more_w)
            return "texts differ only in line endings";
        if (!more_g)
            gl = "<end of output>";
        if (!more_w)
            wl = "<end of reference>";
        if (gl != wl || !more_g || !more_w) {
            return "line " + std::to_string(line) + ": got \"" + gl +
                   "\" want \"" + wl + "\"";
        }
    }
}

void
writeMachineStanza(gpuscale::obs::JsonWriter &w)
{
    std::string cpu = "unknown";
    std::istringstream info(readFile("/proc/cpuinfo"));
    std::string line;
    while (std::getline(info, line)) {
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            if (colon != std::string::npos)
                cpu = line.substr(line.find_first_not_of(' ', colon + 1));
            break;
        }
    }
    const auto space = gpuscale::scaling::ConfigSpace::paperGrid();
    const char *commit = std::getenv("PERFBENCH_COMMIT");
    const char *digest = std::getenv("PERFBENCH_SOURCE_DIGEST");

    w.beginObject();
    w.key("cpu_model").value(cpu);
    w.key("nproc").value(static_cast<uint64_t>(
        std::thread::hardware_concurrency()));
    w.key("compiler").value(PERFBENCH_COMPILER);
    w.key("build_type").value(PERFBENCH_BUILD_TYPE);
    w.key("commit");
    if (commit != nullptr && *commit != '\0')
        w.value(commit);
    else
        w.valueNull();
    w.key("source_digest");
    if (digest != nullptr && *digest != '\0')
        w.value(digest);
    else
        w.valueNull();
    w.key("grid").beginObject();
    w.key("name").value("paper");
    w.key("cu_values").value(static_cast<uint64_t>(space.cuValues().size()));
    w.key("core_clks").value(static_cast<uint64_t>(space.coreClks().size()));
    w.key("mem_clks").value(static_cast<uint64_t>(space.memClks().size()));
    w.key("configs").value(static_cast<uint64_t>(space.size()));
    w.endObject();
    w.endObject();
}

} // namespace perfbench
