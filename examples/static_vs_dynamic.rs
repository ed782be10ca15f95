//! The paper's §IV control experiment, reproduced: "we wrote two simple
//! Fortran test programs, one statically allocating memory for a 2-d array
//! and one dynamically allocating memory for a 2-d array, and then just
//! repeated calculating sums over the arrays. As expected, the program with
//! the dynamically allocated array was able to use huge pages … while the
//! statically allocated array version could not. This behavior is expected
//! because transparent huge pages only maps anonymous memory regions."
//!
//! Here both variants live in one binary: a `static mut`-style array in the
//! BSS segment versus a THP-advised anonymous mapping, with `/proc/self/
//! smaps` as the judge. On hosts whose kernel never grants THP, the
//! dynamic variant falls back to an explicit hugetlbfs mapping (pool
//! permitting) to show the contrast.
//!
//! ```text
//! cargo run --release --example static_vs_dynamic
//! ```

use std::time::Instant;

use rflash::hugepages::{PageBuffer, PageSize, Policy, SmapsRegion};

const N: usize = 32 * 1024 * 1024; // 256 MiB of f64

// The "statically allocated Fortran array": lives in BSS, file-backed
// program segment — not anonymous, so THP can never map it.
static mut STATIC_ARRAY: [f64; N] = [0.0; N];

fn sum_pass(data: &mut [f64]) -> f64 {
    let mut acc = 0.0;
    for x in data.iter_mut() {
        *x += 1.0;
        acc += *x;
    }
    acc
}

fn report(label: &str, addr: usize, secs: f64, acc: f64) {
    std::hint::black_box(acc);
    match SmapsRegion::for_addr(addr) {
        Ok(s) => println!(
            "{label:<22} {:>8.3} s   rss={:>7} kB  AnonHugePages={:>7} kB  hugetlb={:>7} kB  kpagesize={} kB",
            secs,
            s.rss / 1024,
            s.anon_huge_pages / 1024,
            s.hugetlb / 1024,
            s.kernel_page_size / 1024,
        ),
        Err(e) => println!("{label:<22} {secs:>8.3} s   (smaps unavailable: {e})"),
    }
}

fn main() {
    println!(
        "array size: {} MiB; three summation passes each\n",
        N * 8 / (1 << 20)
    );

    // 1. Static allocation (the paper's program that could NOT use THP).
    {
        // SAFETY: single-threaded exclusive access to the static.
        let data = unsafe { &mut *std::ptr::addr_of_mut!(STATIC_ARRAY) };
        let t0 = Instant::now();
        let mut acc = 0.0;
        for _ in 0..3 {
            acc += sum_pass(data);
        }
        report(
            "static (BSS)",
            data.as_ptr() as usize,
            t0.elapsed().as_secs_f64(),
            acc,
        );
    }

    // 2. Dynamic allocation with THP advice (the paper's program that could).
    {
        let mut buf = PageBuffer::<f64>::zeroed(N, Policy::Thp).expect("thp alloc");
        let t0 = Instant::now();
        let mut acc = 0.0;
        for _ in 0..3 {
            acc += sum_pass(buf.as_mut_slice());
        }
        report(
            "dynamic (THP advice)",
            buf.base_addr(),
            t0.elapsed().as_secs_f64(),
            acc,
        );
        if !buf.backing_report().verified_huge() {
            println!(
                "  note: this kernel did not grant THP — the same silent\n\
                 \x20 non-engagement the paper hit with GNU/Cray binaries."
            );
        }
    }

    // 3. Dynamic allocation with explicit hugetlbfs pages.
    {
        let mut buf = PageBuffer::<f64>::zeroed(N, Policy::HugeTlbFs(PageSize::Huge2M))
            .expect("hugetlb alloc (or fallback)");
        let t0 = Instant::now();
        let mut acc = 0.0;
        for _ in 0..3 {
            acc += sum_pass(buf.as_mut_slice());
        }
        report(
            "dynamic (hugetlbfs)",
            buf.base_addr(),
            t0.elapsed().as_secs_f64(),
            acc,
        );
        let rep = buf.backing_report();
        if let Some(why) = &rep.fell_back {
            println!("  note: hugetlb pool unavailable ({why}); configure with\n  echo 256 > /proc/sys/vm/nr_hugepages");
        }
    }

    println!(
        "\npaper's conclusion, reproduced: only *anonymous* (dynamically\n\
         allocated) memory can be huge-page backed; the static array never is."
    );
}
