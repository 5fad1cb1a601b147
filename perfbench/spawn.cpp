// perfbench_spawn — runs one command and reports its wall time, peak
// resident set and exit status.
//
//   perfbench_spawn TIMEOUT_S STDERR_FILE PROGRAM [ARGS...]
//
// prints "<wall_s> <max_rss_kb> <exit_code>" on standard output; the exit
// code is the child's, or minus the signal that ended it.  The child's
// standard output goes to /dev/null and its standard error to STDERR_FILE.
// A child still running after TIMEOUT_S seconds is killed.
//
// The peak resident set comes from wait4.  The kernel carries it across
// exec, so a child forked from a large process (the Python runner) would
// report the parent's resident set as its own peak; forking from this small
// process keeps that floor at about a megabyte.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <ctime>

namespace {

volatile sig_atomic_t child_pid = 0;

void kill_child(int) {
    if (child_pid > 0) kill(child_pid, SIGKILL);
}

double now() {
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 4) {
        std::fprintf(stderr, "usage: %s TIMEOUT_S STDERR_FILE PROGRAM [ARGS...]\n", argv[0]);
        return 2;
    }
    const unsigned timeout = static_cast<unsigned>(std::strtoul(argv[1], nullptr, 10));
    const int err = open(argv[2], O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int null = open("/dev/null", O_WRONLY);
    if (err < 0 || null < 0) {
        std::perror("perfbench_spawn: open");
        return 2;
    }
    struct sigaction on_alarm{};
    on_alarm.sa_handler = kill_child;
    sigaction(SIGALRM, &on_alarm, nullptr);

    const double start = now();
    const pid_t pid = fork();
    if (pid < 0) {
        std::perror("perfbench_spawn: fork");
        return 2;
    }
    if (pid == 0) {
        prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive this process
        dup2(null, STDOUT_FILENO);
        dup2(err, STDERR_FILENO);
        execvp(argv[3], argv + 3);
        std::perror("perfbench_spawn: exec");
        _exit(127);
    }
    child_pid = pid;
    alarm(timeout);
    int status = 0;
    rusage usage{};
    while (wait4(pid, &status, 0, &usage) < 0) {
        // EINTR comes from the alarm, whose handler has killed the child.
        if (errno != EINTR) {
            std::perror("perfbench_spawn: wait4");
            return 2;
        }
    }
    const double wall = now() - start;
    alarm(0);
    const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
    std::printf("%.9f %ld %d\n", wall, usage.ru_maxrss, code);
    return 0;
}
